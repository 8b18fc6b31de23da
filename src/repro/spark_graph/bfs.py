"""Unweighted multi-source BFS: the one shortest-path kernel, two placements.

``_bfs_group`` runs over a *work frame* ``(gid, kind, a, b)`` that carries,
per group ``gid``, the whole edge list (``kind="E"``, edge ``a → b``) and
the group's sources (``kind="N"``, source ``a``): it builds the adjacency
and runs a queue BFS from each source. Every SLen build, and every step
that writes more than ``DRIVER_STEP_ROWS`` rows, runs it inside Python
workers through ``grouped_bfs`` (``groupBy("gid").applyInPandas``, one task
per group). A smaller step reads the work frame to the driver in one Arrow
read and runs it there (``slen_step``): below that size the Python-worker
job, not the BFS, is the step's cost (DESIGN.md §6). Callers differ only in
the group key:

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
from collections.abc import Set

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.frames import id_list, local_frame
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


#: Most rows (``|stale| × |V_new|``) a step from an old SLen builds on the
#: driver; a larger step, and every build, runs in Python workers. Below it
#: the worker job's fixed cost is the step: from the Table XI seed-0 SLen, a
#: step of 10 sources (12 000 rows) took 0.37 s on the driver against 1.03 s
#: in Spark on livejournal-lite, and the two met near 60 000 rows (50
#: sources), past which Spark won, 1.09 against 1.43 s at 180 000 rows
#: (EXPERIMENTS.md, "SLen step on the driver"). One Arrow record batch at
#: Spark's default size.
DRIVER_STEP_ROWS = 10_000


def _work_frame(edges: DataFrame, sources: DataFrame, key: str | None = None) -> DataFrame:
    """``(gid, kind, a, b)``: per group, every edge and the group's sources.

    ``edges``: (src, dst); ``sources``: (id) plus the group-key column
    ``key``. With ``key=None`` every source is in one group, and the edges
    are tagged with its literal gid (no join). Otherwise each distinct key
    is crossed with the edges.
    """
    if key is None:
        gid = F.lit(0).alias("gid")
        group_edges = edges.select(gid, "src", "dst")
        group_sources = sources.select(gid, "id")
    else:
        group_sources = sources.select(F.col(key).alias("gid"), "id")
        group_edges = group_sources.select("gid").distinct().crossJoin(edges)
    return group_edges.select(
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


def grouped_bfs(edges: DataFrame, sources: DataFrame, key: str | None = None) -> DataFrame:
    """Shortest-path rows ``(src, dst, dist)`` from every source, one Python-worker
    task per group of ``_work_frame``. Each source's rows cover exactly the
    nodes reachable from it, ``dist=0`` self row included."""
    return _work_frame(edges, sources, key).groupBy("gid").applyInPandas(
        _bfs_group, schema=SLEN_SCHEMA
    )


def slen_step(
    nodes: DataFrame,
    edges: DataFrame,
    slen: DataFrame | None,
    stale: Set[int] | None,
    key: str | None = None,
) -> DataFrame:
    """SLen of the graph (``nodes``: id and the group-key column ``key``;
    ``edges``): a build, BFS from every node in ``grouped_bfs``, or, from the
    SLen before a batch, its rows with ``src NOT IN (stale)`` and BFS from the
    nodes with ``id IN (stale)``; a deleted node and its column's sources are
    stale, so its rows go (DESIGN.md §3). No stale source: ``slen`` itself.

    A step reads the single-group work frame of every node to the driver in
    one Arrow read, which also counts ``V_new``. If it writes at most
    ``DRIVER_STEP_ROWS`` rows, the kernel runs there on the edges and the
    live stale sources (a group key buys nothing in one process), and its
    rows go back as a ``local_frame``, so no plan built on them runs a Python
    worker. A larger step, for which the read only counted ``V_new``, runs
    ``grouped_bfs`` and is checkpointed here, so its Python-worker job runs
    once and inside the caller's timer.
    """
    if slen is None:
        return grouped_bfs(edges, nodes, key)
    if not stale:
        return slen
    ids = id_list(stale)
    kept = slen.filter(f"src NOT IN ({ids})")
    work = _work_frame(edges, nodes).toPandas()
    is_node = work["kind"] == "N"
    if len(stale) * int(is_node.sum()) <= DRIVER_STEP_ROWS:
        rows = _bfs_group(work[~is_node | work["a"].isin(list(stale))])
        fresh = local_frame(
            edges.sparkSession, zip(rows["src"], rows["dst"], rows["dist"]), SLEN_SCHEMA
        )
        return kept.unionByName(fresh)
    fresh = grouped_bfs(edges, nodes.filter(f"id IN ({ids})"), key)
    return kept.unionByName(fresh).localCheckpoint(eager=True)


def apsp(
    nodes: DataFrame, edges: DataFrame, slen: DataFrame | None = None, stale: Set[int] | None = None
) -> DataFrame:
    """All-pairs shortest path lengths (finite entries, ``dist=0`` self rows
    included), every source in one group: from scratch, or one ``slen_step``."""
    return slen_step(nodes, edges, slen, stale)
