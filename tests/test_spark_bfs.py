"""Spark BFS / APSP engine vs the reference and the DuckDB oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.datagraph import DataGraph
from repro.oracle import assert_equivalent
from repro.reference import ref_apsp, ref_bfs
from repro.spark_graph.bfs import apsp
from repro.spark_graph.slen import SLEN_SCHEMA
from tests.util import random_edges, spark_jobs, tiny_graph

SEEDS = [0, 1, 2]


def _recursive_cte(n_cap: int) -> str:
    return f"""
      WITH RECURSIVE walk(src, dst, dist) AS (
        SELECT src, dst, 1 FROM edges
        UNION
        SELECT w.src, e.dst, w.dist + 1
        FROM walk w JOIN edges e ON w.dst = e.src
        WHERE w.dist < {n_cap}
      )
      SELECT src, dst, MIN(dist) AS dist FROM walk
      WHERE src <> dst  -- cycles make the CTE return dist>0 diagonals
      GROUP BY src, dst
    """


def _path(n: int) -> tuple[dict[int, str], list[tuple[int, int]]]:
    """The directed path 0 → 1 → … → n-1: its longest shortest path is n-1 hops."""
    return {i: "A" for i in range(n)}, [(i, i + 1) for i in range(n - 1)]


@pytest.mark.parametrize("case", SEEDS + ["path70"])
def test_apsp_matches_reference(spark, case):
    labels, edges = _path(70) if case == "path70" else tiny_graph(case)
    dg = DataGraph.from_edge_list(spark, labels, edges)
    got = {(r.src, r.dst): r.dist for r in apsp(dg.nodes, dg.edges).collect()}
    assert got == ref_apsp(sorted(labels), edges)


@pytest.mark.parametrize("seed", SEEDS)
def test_apsp_matches_duckdb_oracle(spark, seed):
    """Nontrivial APSP rows == DuckDB recursive-CTE shortest paths."""
    n = 20
    edges = random_edges(seed + 10, n, 60)
    labels = {i: "X" for i in range(n)}
    dg = DataGraph.from_edge_list(spark, labels, edges)
    spark_df = apsp(dg.nodes, dg.edges).filter(F.col("dist") > 0)
    assert_equivalent(
        spark_df,
        _recursive_cte(n),
        edges=pd.DataFrame(edges, columns=["src", "dst"]),
    )


def _no_rows(spark):
    return spark.createDataFrame([], schema=SLEN_SCHEMA)


def test_bfs_single_source(spark):
    """A step from an empty SLen with one stale source is BFS from it."""
    labels, edges = tiny_graph(3)
    dg = DataGraph.from_edge_list(spark, labels, edges)
    src = sorted(labels)[0]
    got = {r.dst: r.dist for r in apsp(dg.nodes, dg.edges, _no_rows(spark), {src}).collect()}
    adj: dict[int, list[int]] = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    assert got == ref_bfs(adj, src)


def test_bfs_subset_of_sources(spark):
    labels, edges = tiny_graph(4)
    dg = DataGraph.from_edge_list(spark, labels, edges)
    srcs = sorted(labels)[:5]
    got = {
        (r.src, r.dst): r.dist
        for r in apsp(dg.nodes, dg.edges, _no_rows(spark), set(srcs)).collect()
    }
    full = ref_apsp(sorted(labels), edges)
    assert got == {(s, d): v for (s, d), v in full.items() if s in srcs}


def test_bfs_includes_diagonal(spark):
    labels = {0: "A", 1: "B"}
    dg = DataGraph.from_edge_list(spark, labels, [(0, 1)])
    rows = {(r.src, r.dst): r.dist for r in apsp(dg.nodes, dg.edges).collect()}
    assert rows[(0, 0)] == 0 and rows[(1, 1)] == 0 and rows[(0, 1)] == 1


def test_bfs_disconnected_graph(spark):
    labels = {0: "A", 1: "B", 2: "C"}
    dg = DataGraph.from_edge_list(spark, labels, [])
    rows = apsp(dg.nodes, dg.edges).collect()
    assert {(r.src, r.dst, r.dist) for r in rows} == {(i, i, 0) for i in range(3)}


def test_bfs_cycle_distances(spark):
    labels = {i: "A" for i in range(4)}
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    dg = DataGraph.from_edge_list(spark, labels, edges)
    got = {(r.src, r.dst): r.dist for r in apsp(dg.nodes, dg.edges).collect()}
    assert got[(0, 3)] == 3 and got[(3, 1)] == 2 and got[(2, 2)] == 0


def test_step_with_no_stale_source_keeps_slen(spark):
    """No stale source: the step returns the SLen it was given, with no Spark job."""
    labels, edges = tiny_graph(5)
    dg = DataGraph.from_edge_list(spark, labels, edges)
    slen = _no_rows(spark)
    out, jobs = spark_jobs(spark, lambda: apsp(dg.nodes, dg.edges, slen, set()))
    assert out is slen and jobs == 0
