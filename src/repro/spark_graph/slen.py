"""SLen: the paper's shortest-path-length matrix, kept sparse.

``SLen`` is a DataFrame ``(src, dst, dist)`` holding only *finite*
entries (the paper's Hybrid-format compression argument, §IV-B Remark).

* ``relax_edge_insert`` — exact single-edge-insert update:
  ``d'(u,v) = min(d(u,v), d(u,a) + 1 + d(b,v))`` (one join, no BFS);
  Tables V/VI's ``SLen_new``.

Per-update maintenance in INC-GPNM and EH-GPNM does not use it: it re-runs
the BFS kernel (``spark_graph.bfs``) from the sources ``core.der.source_sets``
names for any data-update kind (the paper's "Dijkstra for the affected
nodes", §IV-B).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

SLEN_SCHEMA = T.StructType(
    [
        T.StructField("src", T.LongType(), False),
        T.StructField("dst", T.LongType(), False),
        T.StructField("dist", T.LongType(), False),
    ]
)


def relax_edge_insert(slen: DataFrame, a: int, b: int) -> DataFrame:
    """SLen after inserting edge ``(a, b)``; exact for a single insertion.

    Uses only old distances: any new shortest path decomposes as
    ``u ⇝ a → b ⇝ v`` with both segments avoiding the new edge, of length
    ``d(u,a) + 1 + d(b,v)``. The ``dist=0`` diagonal rows make the pure
    ``(u,b)`` / ``(a,v)`` cases fall out of the same join.
    """
    to_a = slen.filter(F.col("dst") == a).select("src", F.col("dist").alias("d_ua"))
    from_b = slen.filter(F.col("src") == b).select("dst", F.col("dist").alias("d_bv"))
    via = to_a.crossJoin(F.broadcast(from_b)).select(
        "src", "dst", (F.col("d_ua") + 1 + F.col("d_bv")).alias("dist")
    )
    return slen.unionByName(via).groupBy("src", "dst").agg(F.min("dist").alias("dist"))
