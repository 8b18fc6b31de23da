"""Spark shortest-path substrate: the BFS kernel, SLen's schema and the edge-insert relax."""
from repro.spark_graph.bfs import apsp
from repro.spark_graph.slen import SLEN_SCHEMA, relax_edge_insert

__all__ = [
    "apsp",
    "SLEN_SCHEMA",
    "relax_edge_insert",
]
