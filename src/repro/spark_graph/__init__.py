"""Spark shortest-path substrate: the BFS kernel, SLen's schema and the edge-insert relax."""
from repro.spark_graph.bfs import bfs_from_sources, apsp
from repro.spark_graph.slen import SLEN_SCHEMA, relax_edge_insert

__all__ = [
    "bfs_from_sources",
    "apsp",
    "SLEN_SCHEMA",
    "relax_edge_insert",
]
