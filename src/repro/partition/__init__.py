"""Label-based graph partition (§V) and partitioned shortest paths."""
from repro.partition.label_partition import (
    inner_bridge_nodes,
    outer_bridge_nodes,
    partition_of_nodes,
    quotient_edges,
    reach_closure,
)
from repro.partition.partitioned_slen import partitioned_apsp

__all__ = [
    "partition_of_nodes",
    "inner_bridge_nodes",
    "outer_bridge_nodes",
    "quotient_edges",
    "reach_closure",
    "partitioned_apsp",
]
