"""Table XIII/XIV benchmark: SQuery time vs scale of ΔG (reduced sweep).

Runs scale points 1 and 3 of the (|V_P|, |ΔG_D|) axis on email-lite;
the full 5-point sweep is `jobs/run_table13.py` (see EXPERIMENTS.md).
"""
import pytest

from repro.bench.harness import prepare_query, run_method
from repro.core.methods import METHODS

SCALES = {1: (6, 1, 1), 3: (8, 3, 3)}  # i -> (pattern nodes, m_g=n_g, m_p=n_p)

_cache: dict[int, object] = {}


def _query(spark, scale):
    if scale not in _cache:
        p, g, pp = SCALES[scale]
        _cache[scale] = prepare_query(
            spark, dataset="email-lite", pattern_nodes=p, m_g=g, n_g=g,
            m_p=pp, n_p=pp, seed=0,
        )
    return _cache[scale]


@pytest.mark.parametrize("scale", list(SCALES))
@pytest.mark.parametrize("method", list(METHODS))
def test_table13(benchmark, spark, scale, method):
    q = _query(spark, scale)
    p, g, _ = SCALES[scale]
    benchmark.group = f"table13:scale=({p},{4 * g})"
    result, stats = benchmark.pedantic(
        run_method, args=(spark, q, method), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {
            "slen_passes": stats.n_slen_passes,
            "stale_sources": stats.n_stale_sources,
            "refine_passes": stats.n_refine_passes,
            "eliminated": stats.n_eliminated,
            "roots": stats.n_roots,
        }
    )
    # the method really ran: UA-GPNM's EH-Tree kept a root, the others refined
    assert (stats.n_roots if method.startswith("UA-GPNM") else stats.n_refine_passes) >= 1
