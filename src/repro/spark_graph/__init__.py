"""Spark shortest-path substrate: the BFS kernel and SLen maintenance."""
from repro.spark_graph.bfs import bfs_from_sources, apsp
from repro.spark_graph.slen import (
    SLEN_SCHEMA,
    affected_sources_edge_delete,
    relax_edge_insert,
)

__all__ = [
    "bfs_from_sources",
    "apsp",
    "SLEN_SCHEMA",
    "relax_edge_insert",
    "affected_sources_edge_delete",
]
