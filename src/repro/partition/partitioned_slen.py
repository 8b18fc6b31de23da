"""Partition-based shortest path length computation (§V-B, Alg. 4+5).

The paper computes SLen per partition with Dijkstra, recursively
*combining* a partition with the partitions its outer bridge nodes lead
to (sub-process-1) and composing cross-partition lengths through bridge
nodes (sub-process-2). The recursion terminates exactly when the set of
partitions reachable from ``P_i`` in the partition quotient graph has
been absorbed — so we materialize that *reach closure* up front and run,
for every partition in parallel, one local BFS over the closure's
induced subgraph. This is exact (any path leaving ``P_i`` stays inside
partitions reachable from ``P_i``), unlike a literal reading of Alg. 5's
single-bridge composition; see DESIGN.md §3.

Distribution: the partition id is the group key of the one BFS kernel
(``spark_graph.bfs.grouped_bfs``), so each partition's BFS is one Spark
task — the "processed distributively based on the partitions" of §V-A.
The non-partitioned methods run the same kernel with the whole graph as
a single group.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.partition.label_partition import partition_of_nodes, reach_closure
from repro.spark_graph.bfs import grouped_bfs


def _grouped_work(
    nodes: DataFrame, edges: DataFrame, sources: DataFrame
) -> DataFrame:
    """Work frame (gid, kind, a, b): per-partition closure edges + sources."""
    closure = reach_closure(nodes, edges)
    p = partition_of_nodes(nodes)
    e_lab = edges.join(
        p.withColumnRenamed("id", "src").withColumnRenamed("pid", "src_pid"), "src"
    )
    per_pid_edges = closure.join(
        e_lab, closure.member_pid == e_lab.src_pid
    ).select(
        F.col("pid").alias("gid"),
        F.lit("E").alias("kind"),
        F.col("src").alias("a"),
        F.col("dst").alias("b"),
    )
    src_rows = (
        sources.join(p, "id")
        .select(
            F.col("pid").alias("gid"),
            F.lit("N").alias("kind"),
            F.col("id").alias("a"),
            F.lit(None).cast("long").alias("b"),
        )
    )
    return per_pid_edges.unionByName(src_rows)


def partitioned_bfs_from_sources(
    nodes: DataFrame, edges: DataFrame, sources: DataFrame
) -> DataFrame:
    """Finite shortest-path rows from each source, one task per partition.

    Exactness: a path starting at ``v ∈ P_i`` only traverses edges whose
    start node lies in a partition reachable from ``P_i``, all of which
    are in P_i's closure subgraph.
    """
    return grouped_bfs(_grouped_work(nodes, edges, sources))


def partitioned_apsp(nodes: DataFrame, edges: DataFrame) -> DataFrame:
    """SLen (all finite pairs) with the partitioned engine (UA-GPNM's builder)."""
    return partitioned_bfs_from_sources(nodes, edges, nodes.select("id"))

