"""Label-based partition of the data graph (§V-A).

Every node belongs to the partition of its label ("people with the same
role usually connect with each other closely", [36]); cross-partition
edges are recorded with the partition of their *start* node, exactly as
the paper does for ``e(SE2, TE1)`` in Example 11.

Definitions 1–2:
* ``IB(P_i)`` — inner bridge nodes: ``v ∈ P_i`` with an edge to some
  ``v' ∉ P_i``.
* ``OB(P_i)`` — outer bridge nodes: ``v' ∉ P_i`` reached by an edge from
  some ``v ∈ P_i``.

The *reach closure* of a partition is the set of partitions transitively
reachable through outer bridges (including itself): the partitions the
paper's Alg. 4 "recursively combines". The SLen build does not compute it:
a BFS from a partition's sources walks exactly this closure
(``partition.partitioned_slen``). ``reach_closure`` computes it on the tiny
partition quotient graph for Example 14 and for the benchmark's tracer.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.frames import local_frame

CLOSURE_SCHEMA = T.StructType(
    [
        T.StructField("pid", T.StringType(), False),
        T.StructField("member_pid", T.StringType(), False),
    ]
)


def partition_of_nodes(nodes: DataFrame) -> DataFrame:
    """(id, pid) — the partition id of a node is its label."""
    return nodes.select("id", F.col("label").alias("pid"))


def _edges_with_pids(nodes: DataFrame, edges: DataFrame) -> DataFrame:
    """(src, dst, src_pid, dst_pid)."""
    p = partition_of_nodes(nodes)
    return (
        edges.join(p.withColumnRenamed("id", "src").withColumnRenamed("pid", "src_pid"), "src")
        .join(p.withColumnRenamed("id", "dst").withColumnRenamed("pid", "dst_pid"), "dst")
        .select("src", "dst", "src_pid", "dst_pid")
    )


def inner_bridge_nodes(nodes: DataFrame, edges: DataFrame) -> DataFrame:
    """(pid, id): IB(P_pid) per Definition 1."""
    e = _edges_with_pids(nodes, edges)
    return (
        e.filter(F.col("src_pid") != F.col("dst_pid"))
        .select(F.col("src_pid").alias("pid"), F.col("src").alias("id"))
        .distinct()
    )


def outer_bridge_nodes(nodes: DataFrame, edges: DataFrame) -> DataFrame:
    """(pid, id): OB(P_pid) per Definition 2 — nodes *outside* P_pid."""
    e = _edges_with_pids(nodes, edges)
    return (
        e.filter(F.col("src_pid") != F.col("dst_pid"))
        .select(F.col("src_pid").alias("pid"), F.col("dst").alias("id"))
        .distinct()
    )


def quotient_edges(nodes: DataFrame, edges: DataFrame) -> DataFrame:
    """(src_pid, dst_pid) — the partition-level quotient graph (cross edges only)."""
    e = _edges_with_pids(nodes, edges)
    return (
        e.filter(F.col("src_pid") != F.col("dst_pid"))
        .select("src_pid", "dst_pid")
        .distinct()
    )


def reach_closure(nodes: DataFrame, edges: DataFrame) -> DataFrame:
    """(pid, member_pid): partitions reachable from ``pid`` incl. itself.

    The quotient graph has one node per label (≤ tens), so the closure is
    computed driver-side and shipped back as a DataFrame.
    """
    spark = nodes.sparkSession
    pids = [r["label"] for r in nodes.select("label").distinct().collect()]
    q = [(r["src_pid"], r["dst_pid"]) for r in quotient_edges(nodes, edges).collect()]
    adj: dict[str, set[str]] = {p: set() for p in pids}
    for a, b in q:
        adj.setdefault(a, set()).add(b)
    rows = []
    for p in pids:
        seen = {p}
        stack = [p]
        while stack:
            cur = stack.pop()
            for nxt in adj.get(cur, ()):  # DFS over ≤ |labels| nodes
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        rows += [(p, m) for m in sorted(seen)]
    return local_frame(spark, rows, CLOSURE_SCHEMA)
