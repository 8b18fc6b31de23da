"""Table XI/XII benchmark: per-dataset SQuery time for all four methods.

`pytest benchmarks/ --benchmark-only` runs a reduced-scale version
(the two smallest datasets) so the suite stays minutes, not hours; the
full five-dataset sweep with the same harness is `jobs/run_table11.py`,
whose output is recorded in EXPERIMENTS.md.

Each (dataset × method) pair is one benchmark row; compare rows grouped
by dataset to read off the paper's Table XI ordering
(UA < NoPar < EH < INC).
"""
import pytest

from repro.bench.harness import prepare_query, run_method
from repro.core.methods import METHODS

DATASETS = ["email-lite"]

_cache: dict[str, object] = {}


def _query(spark, dataset):
    if dataset not in _cache:
        _cache[dataset] = prepare_query(spark, dataset=dataset, seed=0)
    return _cache[dataset]


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("method", list(METHODS))
def test_table11(benchmark, spark, dataset, method):
    q = _query(spark, dataset)
    benchmark.group = f"table11:{dataset}"
    result, stats = benchmark.pedantic(
        run_method, args=(spark, q, method), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {
            "slen_passes": stats.n_slen_passes,
            "refine_passes": stats.n_refine_passes,
            "eliminated": stats.n_eliminated,
            "roots": stats.n_roots,
        }
    )
    # the method really ran: UA-GPNM's EH-Tree kept a root, the others refined
    assert (stats.n_roots if method.startswith("UA-GPNM") else stats.n_refine_passes) >= 1
