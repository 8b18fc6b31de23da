"""Unweighted multi-source BFS: the one shortest-path kernel.

Every SLen build goes through ``grouped_bfs``, which runs ``_bfs_group``
inside Python workers through ``groupBy("gid").applyInPandas``. It builds
a *work frame* ``(gid, kind, a, b)`` that carries, per group ``gid``, the
whole edge list (``kind="E"``, edge ``a → b``) and the group's sources
(``kind="N"``, source ``a``); one task per group builds the adjacency and
runs a queue BFS from each source. Callers differ only in the group key:

* ``apsp`` puts every source in a single group; INC-GPNM, EH-GPNM,
  UA-GPNM-NoPar and ``gpnm_from_scratch`` use it.
* ``partition.partitioned_slen`` makes one group per label partition
  (UA-GPNM, §V); like ``apsp``, it can step from an earlier SLen (``slen_step``).

A BFS from a source only walks what the source reaches, so a partition's
BFS walks exactly its reach closure: giving each group every edge is exact
and needs no closure computed up front.

The paper uses Dijkstra; on unit-weight social graphs BFS *is* Dijkstra.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Callable, Set

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.frames import id_list
from repro.spark_graph.slen import SLEN_SCHEMA


def _bfs_group(pdf: pd.DataFrame) -> pd.DataFrame:
    """BFS from every source row over the edge rows of one group."""
    adj: dict[int, list[int]] = {}
    sources: list[int] = []
    for kind, a, b in zip(pdf["kind"], pdf["a"], pdf["b"]):
        if kind == "E":
            adj.setdefault(int(a), []).append(int(b))
        else:
            sources.append(int(a))
    out_src: list[int] = []
    out_dst: list[int] = []
    out_dist: list[int] = []
    for s in sources:
        dist = {s: 0}
        q = deque([s])
        while q:
            u = q.popleft()
            du = dist[u]
            for v in adj.get(u, ()):  # unit weights: BFS == Dijkstra
                if v not in dist:
                    dist[v] = du + 1
                    q.append(v)
        out_src += [s] * len(dist)
        out_dst += list(dist.keys())
        out_dist += list(dist.values())
    return pd.DataFrame({"src": out_src, "dst": out_dst, "dist": out_dist})


def grouped_bfs(edges: DataFrame, sources: DataFrame, key: str | None = None) -> DataFrame:
    """Shortest-path rows ``(src, dst, dist)`` from every source, one task per group.

    ``edges``: (src, dst); ``sources``: (id) plus the group-key column
    ``key``. With ``key=None`` every source is in one group, and the edges
    are tagged with its literal gid (no join). Otherwise each distinct key
    is crossed with the edges. Each source's rows cover exactly the nodes
    reachable from it, ``dist=0`` self row included.
    """
    if key is None:
        gid = F.lit(0).alias("gid")
        group_edges = edges.select(gid, "src", "dst")
        group_sources = sources.select(gid, "id")
    else:
        group_sources = sources.select(F.col(key).alias("gid"), "id")
        group_edges = group_sources.select("gid").distinct().crossJoin(edges)
    work = group_edges.select(
        "gid",
        F.lit("E").alias("kind"),
        F.col("src").alias("a"),
        F.col("dst").alias("b"),
    ).unionByName(
        group_sources.select(
            "gid",
            F.lit("N").alias("kind"),
            F.col("id").alias("a"),
            F.lit(None).cast("long").alias("b"),
        )
    )
    return work.groupBy("gid").applyInPandas(_bfs_group, schema=SLEN_SCHEMA)


def slen_step(
    nodes: DataFrame,
    slen: DataFrame | None,
    stale: Set[int] | None,
    bfs: Callable[[DataFrame], DataFrame],
) -> DataFrame:
    """SLen of the graph ``bfs(sources)`` walks: BFS from every node, or, from
    the SLen before a batch, its rows with ``src NOT IN (stale)`` and BFS from
    the nodes with ``id IN (stale)``; a deleted node and its column's sources
    are stale, so its rows go (DESIGN.md §3). No stale source: ``slen`` itself."""
    if slen is None:
        return bfs(nodes)
    if not stale:
        return slen
    ids = id_list(stale)
    return slen.filter(f"src NOT IN ({ids})").unionByName(bfs(nodes.filter(f"id IN ({ids})")))


def apsp(
    nodes: DataFrame, edges: DataFrame, slen: DataFrame | None = None, stale: Set[int] | None = None
) -> DataFrame:
    """All-pairs shortest path lengths (finite entries, ``dist=0`` self rows
    included), every source in one group: from scratch, or one ``slen_step``."""
    return slen_step(nodes, slen, stale, lambda sources: grouped_bfs(edges, sources))
