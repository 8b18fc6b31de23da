"""From-scratch GPNM: build SLen, run the BGS fixpoint (§III-B).

This is the primitive every method bottoms out in, and the ground truth
the tests compare all four update-aware methods against.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.matching import match_fixpoint
from repro.graphs.datagraph import DataGraph
from repro.graphs.pattern import PatternGraph
from repro.spark_graph.bfs import apsp


def gpnm_from_scratch(
    spark: SparkSession,
    dg: DataGraph,
    pattern: PatternGraph,
    slen: DataFrame | None = None,
) -> DataFrame:
    """Node matching result (pid, vid) of ``pattern`` in ``dg``.

    ``slen`` may be passed to reuse a cached shortest-path table (the
    IQuery path in the experiments); otherwise it is built with ``apsp``.
    """
    if slen is None:
        slen = apsp(dg.nodes, dg.edges)
    return match_fixpoint(spark, pattern, slen, dg.nodes)
