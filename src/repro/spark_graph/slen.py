"""SLen maintenance: the paper's shortest-path-length matrix, kept sparse.

``SLen`` is a DataFrame ``(src, dst, dist)`` holding only *finite*
entries (the paper's Hybrid-format compression argument, §IV-B Remark).
This module provides the incremental maintenance primitives that the
GPNM methods compose:

* ``relax_edge_insert`` — exact single-edge-insert update:
  ``d'(u,v) = min(d(u,v), d(u,a) + 1 + d(b,v))`` (one join, no BFS).
* ``affected_sources_edge_delete`` — sources whose shortest-path tree may
  use edge (a,b): ``{u : d(u,b) = d(u,a)+1}``; deletion re-runs BFS from
  exactly these (the paper's "Dijkstra for the affected nodes").
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


def _walks_via_edge(slen: DataFrame, a: int, b: int) -> DataFrame:
    """``(src, dst, via)``: length of the shortest walk ``src ⇝ a → b ⇝ dst``.

    One row per ``src`` reaching ``a`` and ``dst`` reachable from ``b``;
    ``via = d(src, a) + 1 + d(b, dst)``, from SLen's existing rows.
    """
    to_a = slen.filter(F.col("dst") == a).select(
        "src", F.col("dist").alias("d_ua")
    )
    from_b = slen.filter(F.col("src") == b).select(
        "dst", F.col("dist").alias("d_bv")
    )
    return to_a.crossJoin(F.broadcast(from_b)).select(
        "src", "dst", (F.col("d_ua") + 1 + F.col("d_bv")).alias("via")
    )


def relax_edge_insert(slen: DataFrame, a: int, b: int) -> DataFrame:
    """SLen after inserting edge ``(a, b)``; exact for a single insertion.

    Uses only old distances: any new shortest path decomposes as
    ``u ⇝ a → b ⇝ v`` with both segments avoiding the new edge.
    The ``dist=0`` diagonal rows make the pure ``(u,b)`` / ``(a,v)``
    cases fall out of the same join.
    """
    via = _walks_via_edge(slen, a, b).withColumnRenamed("via", "dist")
    return (
        slen.unionByName(via)
        .groupBy("src", "dst")
        .agg(F.min("dist").alias("dist"))
    )


def affected_sources_edge_delete(slen: DataFrame, a: int, b: int) -> DataFrame:
    """Sources ``(id)`` possibly using edge (a,b) on some shortest path.

    ``u`` qualifies iff ``d(u,b) == d(u,a) + 1`` — a conservative,
    complete superset of the sources whose rows can change when (a,b)
    is removed.
    """
    d_a = slen.filter(F.col("dst") == a).select(
        F.col("src").alias("id"), F.col("dist").alias("d_ua")
    )
    d_b = slen.filter(F.col("dst") == b).select(
        F.col("src").alias("id"), F.col("dist").alias("d_ub")
    )
    return (
        d_a.join(F.broadcast(d_b), "id")
        .filter(F.col("d_ub") == F.col("d_ua") + 1)
        .select("id")
    )

