"""Unweighted multi-source BFS: the one shortest-path kernel, two placements.

``_bfs`` builds the adjacency of an edge list and runs a queue BFS from
each source. Every SLen computation, build or step, goes through
``slen_step``, which places it by the rows it writes (|sources| × |V|):
at most ``DRIVER_BFS_ROWS`` rows run ``_bfs`` on the driver, on the node
ids and edges read in two Arrow reads, and larger ones run it inside Python
workers through ``grouped_bfs`` (``groupBy("gid").applyInPandas`` over a
*work frame* ``(gid, kind, a, b)`` that carries, per group ``gid``, the
whole edge list and the group's sources, one task per group). Below the
bound the Python-worker job, not the BFS, is the cost (DESIGN.md §6).
Callers differ only in the group key, which only the Spark placement uses:

* ``apsp`` puts every source in a single group; INC-GPNM, EH-GPNM,
  UA-GPNM-NoPar and ``gpnm_from_scratch`` use it.
* ``partition.partitioned_slen`` makes one group per label partition
  (UA-GPNM, §V).

A BFS from a source only walks what the source reaches, so a partition's
BFS walks exactly its reach closure: giving each group every edge is exact
and needs no closure computed up front.

The paper uses Dijkstra; on unit-weight social graphs BFS *is* Dijkstra.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Set

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.frames import id_list, local_frame
from repro.spark_graph.slen import SLEN_SCHEMA


def _bfs(edges: Iterable[tuple[int, int]], sources: Iterable[int]) -> pd.DataFrame:
    """``(src, dst, dist)`` from every source over the edges ``a → b``."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(int(a), []).append(int(b))
    out_src: list[int] = []
    out_dst: list[int] = []
    out_dist: list[int] = []
    for s in map(int, sources):
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


def _bfs_group(pdf: pd.DataFrame) -> pd.DataFrame:
    """``_bfs`` over one group of the work frame: its edge rows and source rows."""
    is_edge = pdf["kind"] == "E"
    return _bfs(zip(pdf["a"][is_edge], pdf["b"][is_edge]), pdf["a"][~is_edge])


#: Most rows (|sources| × |V|) a BFS writes on the driver; a larger one runs
#: in Python workers, whose job's fixed cost (0.25–0.37 s) is the whole cost
#: below it. For steps from the Table XI seed-0 SLen of livejournal-lite,
#: 10 sources (12 000 rows) took 0.37 s on the driver against 1.03 s in Spark,
#: the two met near 60 000 rows, and Spark won at 180 000 rows, 1.09 against
#: 1.43 s. For builds, email-lite's (62 500 rows) took 0.61 s on the driver
#: against 0.74 s in Spark, and livejournal-lite's (1.44 M rows) 10.6 s against
#: 2.5 s (EXPERIMENTS.md, "SLen step on the driver", "One placement rule for
#: every BFS"). One Arrow record batch at Spark's default size.
DRIVER_BFS_ROWS = 10_000


def grouped_bfs(edges: DataFrame, sources: DataFrame, key: str | None = None) -> DataFrame:
    """Shortest-path rows ``(src, dst, dist)`` from every source, one Python-worker
    task per group. Each source's rows cover exactly the nodes reachable from
    it, ``dist=0`` self row included.

    ``edges``: (src, dst); ``sources``: (id) plus the group-key column
    ``key``. The work frame ``(gid, kind, a, b)`` gives each group every edge
    and its sources. With ``key=None`` every source is in one group, and the
    edges are tagged with its literal gid (no join). Otherwise each distinct
    key is crossed with the edges.
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
    edges: DataFrame,
    slen: DataFrame | None,
    stale: Set[int] | None,
    key: str | None = None,
) -> DataFrame:
    """SLen of the graph (``nodes``: id and the group-key column ``key``;
    ``edges``): a build, BFS from every node, or, from the SLen before a
    batch, its rows with ``src NOT IN (stale)`` and BFS from the nodes with
    ``id IN (stale)``; a deleted node and its column's sources are stale, so
    its rows go (DESIGN.md §3). No stale source: ``slen`` itself, with no read.

    The node ids come to the driver first, in one Arrow read that gives
    ``|V|`` and the live sources. A BFS that writes at most
    ``DRIVER_BFS_ROWS`` rows then reads the edges in a second Arrow read and
    runs ``_bfs`` there (a group key buys nothing in one process); its rows
    go back as a ``local_frame``, so no plan built on them runs a Python
    worker, and nothing is checkpointed. A larger one runs ``grouped_bfs`` and
    is checkpointed here, so its Python-worker job runs once and inside the
    caller's timer.
    """
    if slen is not None and not stale:
        return slen
    ids = nodes.select("id").toPandas()["id"]
    if slen is None:
        sources = ids
    else:
        sources = ids[ids.isin(list(stale))]
        nodes = nodes.filter(f"id IN ({id_list(stale)})")
    on_driver = len(sources) * len(ids) <= DRIVER_BFS_ROWS
    if on_driver:
        pairs = edges.select("src", "dst").toPandas()
        rows = _bfs(zip(pairs["src"], pairs["dst"]), sources)
        fresh = local_frame(
            edges.sparkSession, zip(rows["src"], rows["dst"], rows["dist"]), SLEN_SCHEMA
        )
    else:
        fresh = grouped_bfs(edges, nodes, key)
    if slen is not None:
        fresh = slen.filter(f"src NOT IN ({id_list(stale)})").unionByName(fresh)
    return fresh if on_driver else fresh.localCheckpoint(eager=True)


def apsp(
    nodes: DataFrame, edges: DataFrame, slen: DataFrame | None = None, stale: Set[int] | None = None
) -> DataFrame:
    """All-pairs shortest path lengths (finite entries, ``dist=0`` self rows
    included), every source in one group: from scratch, or one ``slen_step``."""
    return slen_step(nodes, edges, slen, stale)
