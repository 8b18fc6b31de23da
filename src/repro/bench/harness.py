"""Query harness for the §VII experiments.

One *query* = (data graph, pattern graph, IQuery, ΔG) → run each GPNM
method on the identical inputs and record its ``RunStats``. Mirrors the
paper's protocol: the IQuery result (and its SLen) are inputs to the
SQuery, so SLen construction for the *original* graph is excluded from
the measured SQuery time; everything the method does to answer the
SQuery (detection, SLen maintenance, matching passes) is included.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.core.gpnm import gpnm_from_scratch
from repro.core.matching import matches_to_dict
from repro.core.methods import METHODS, RunStats
from repro.graphs.datagraph import DataGraph
from repro.graphs.pattern import PatternGraph
from repro.graphs.updates import (
    Update,
    generate_data_updates,
    generate_pattern_updates,
)
from repro.partition.partitioned_slen import partitioned_apsp
from repro.synth_graph import DATASETS, dataset_graph, pattern_graph


@dataclass
class PreparedQuery:
    """Frozen inputs shared by every method for one query."""

    dataset: str
    dg: DataGraph
    gp: PatternGraph
    slen: DataFrame
    iquery: DataFrame
    updates: list[Update]


def prepare_query(
    spark: SparkSession,
    *,
    dataset: str,
    pattern_nodes: int = 8,
    m_g: int = 3,
    n_g: int = 3,
    m_p: int = 2,
    n_p: int = 2,
    seed: int = 0,
    overlap: float = 0.6,
) -> PreparedQuery:
    """Build one query instance: graph, non-trivially-matching pattern,
    IQuery + its SLen, and the §VII-A update mix.

    Pattern seeds are scanned deterministically until the IQuery is
    non-empty (an all-empty IQuery makes every update trivially cheap and
    would not exercise the algorithms).
    """
    labels, edges = dataset_graph(dataset)
    dg = DataGraph.from_edge_list(spark, labels, edges).cache()
    dg.counts()  # materialize the cache outside any timer
    slen = partitioned_apsp(dg.nodes, dg.edges)

    label_vocab = sorted(set(labels.values()))
    gp = None
    iquery = None
    for attempt in range(20):
        cand_gp = pattern_graph(
            n_nodes=pattern_nodes,
            labels=label_vocab,
            seed=seed * 97 + attempt,
        )
        cand_iq = gpnm_from_scratch(spark, dg, cand_gp, slen).localCheckpoint(
            eager=True
        )
        if not cand_iq.isEmpty():
            gp, iquery = cand_gp, cand_iq
            break
    if gp is None:
        raise RuntimeError(f"no matching pattern found for {dataset} seed={seed}")

    updates = generate_data_updates(
        labels, edges, m_g=m_g, n_g=n_g, seed=seed, overlap=overlap
    ) + generate_pattern_updates(
        gp, label_vocab, m_p=m_p, n_p=n_p, seed=seed
    )
    return PreparedQuery(
        dataset=dataset, dg=dg, gp=gp, slen=slen, iquery=iquery, updates=updates
    )


def run_method(
    spark: SparkSession, q: PreparedQuery, method: str
) -> tuple[dict[int, set[int]], RunStats]:
    """Run one method on a prepared query; returns (SQuery dict, stats).

    Each method checkpoints hundreds of intermediate RDDs; dropping the
    Python references and forcing a GC lets Spark's ContextCleaner
    unpersist them, so a method's measurement is not penalized by the
    executor-memory residue of the methods that ran before it.
    """
    gc.collect()
    t0 = time.perf_counter()
    result_df, stats = METHODS[method](spark, q.dg, q.gp, q.slen, q.iquery, q.updates)
    stats.phase_seconds.setdefault(
        "other", max(0.0, (time.perf_counter() - t0) - stats.total_seconds)
    )
    out = matches_to_dict(result_df)
    gc.collect()
    return out, stats


def run_all_methods(
    spark: SparkSession, q: PreparedQuery, methods: list[str] | None = None
) -> dict[str, RunStats]:
    """Run every method on the same query and assert their SQueries agree."""
    methods = methods or list(METHODS)
    results: dict[str, dict[int, set[int]]] = {}
    stats: dict[str, RunStats] = {}
    for m in methods:
        results[m], stats[m] = run_method(spark, q, m)
    first = methods[0]
    for m in methods[1:]:
        assert results[m] == results[first], (
            f"SQuery mismatch between {m} and {first} on {q.dataset}"
        )
    return stats


def dataset_names() -> list[str]:
    """Datasets in the paper's Table X order."""
    return list(DATASETS)
