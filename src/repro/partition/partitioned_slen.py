"""Partition-based shortest path length computation (§V-B, Alg. 4+5).

The paper computes SLen per partition with Dijkstra, recursively
*combining* a partition with the partitions its outer bridge nodes lead
to. Here the label partition is the group key of the one BFS kernel
(``spark_graph.bfs.grouped_bfs``): each partition's sources are one Spark
task — the "processed distributively based on the partitions" of §V-A —
over the whole edge list. A BFS from ``P_i``'s sources walks exactly the
partitions reachable from ``P_i``, so Alg. 4's combination happens inside
the BFS and nothing is computed up front. This is exact, unlike a literal
reading of Alg. 5's single-bridge composition; see DESIGN.md §3. After a
batch, only the stale sources run again (UA-GPNM's batched SLen step), on
the driver if the step is small (``spark_graph.bfs.slen_step``).
"""
from __future__ import annotations

from collections.abc import Set

from pyspark.sql import DataFrame

# reach_closure is unused by the build; the benchmark's tracer looks it up here.
from repro.partition.label_partition import reach_closure  # noqa: F401
from repro.spark_graph.bfs import slen_step


def partitioned_apsp(
    nodes: DataFrame, edges: DataFrame, slen: DataFrame | None = None, stale: Set[int] | None = None
) -> DataFrame:
    """SLen (all finite pairs) with the partitioned engine (UA-GPNM's builder):
    from scratch, or one ``slen_step`` from the SLen before a batch. A node's
    partition is its label (``partition_of_nodes``), so the label is the key."""
    return slen_step(nodes, edges, slen, stale, "label")
