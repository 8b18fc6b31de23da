"""The four GPNM methods compared in §VII: INC-GPNM, EH-GPNM,
UA-GPNM-NoPar, and UA-GPNM (Algorithm 6).

All four receive the same inputs as the paper's Updates-Aware GPNM
problem (§III-C): original ``G_D``/``G_P``, a cached ``SLen``, the
IQuery matching result, and the update sequences ΔG_D/ΔG_P. All four
return the identical, exact SQuery (verified against from-scratch GPNM
in the tests) — they differ in how much work they do:

* **INC-GPNM** [13]: per update — identify the affected area, update
  SLen incrementally, run a regional matching pass. 2k SLen/refine passes.
* **EH-GPNM** [14]: DER-II over ΔG_D + an EH-Tree over data updates:
  regional passes only for *uneliminated* data updates, but still one
  pass per pattern update, and per-update SLen maintenance.
* **UA-GPNM-NoPar**: DER-I+II+III over all updates, full EH-Tree (cross
  relationships included), ONE batched SLen step, ONE matching pass.
* **UA-GPNM**: identical, but the batched step groups its BFS sources by
  the label partition of §V.

Every SLen computation runs the one BFS kernel of ``spark_graph.bfs``.
Every method maintains SLen with one step (``_slen_step``): it keeps every
row except those of the stale sources ``der.source_sets`` names and re-runs
the kernel from those alone, per data update (INC-GPNM, EH-GPNM) or once
per batch (UA-GPNM), or rebuilds SLen when every source is stale. A build
or step of at most ``DRIVER_BFS_ROWS`` rows runs the kernel on the driver;
a larger one runs it in Python workers, by label partition for UA-GPNM, as
one group otherwise.

Answers: UA-GPNM's SQuery is one full-universe ``match_fixpoint`` on the
updated graphs, which is BGS on them and exact by construction; its EH-Tree
roots (``RunStats.n_roots``) give the paper's pass count. INC-GPNM and
EH-GPNM keep their measured regional passes and end with the same full pass,
as a regional universe can miss a gained match (DESIGN.md §3).
"""
from __future__ import annotations

import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core.der import (
    Slices,
    affected_nodes_data_update,  # these two are not called here; perfbench/tracing.py
    affected_sets,
    candidate_nodes_pattern_update,  # wraps them under these names
    candidate_sets,
    detect_cross_eliminations,
    read_slices,
    source_sets,
)
from repro.core.ehtree import build_ehtree, eliminated_uids, root_uids
from repro.core.matching import label_candidates, match_fixpoint
from repro.frames import id_list, local_frame
from repro.graphs.datagraph import EDGES_SCHEMA, NODES_SCHEMA, DataGraph
from repro.graphs.pattern import PatternGraph
from repro.graphs.updates import Update, apply_updates_pattern
from repro.partition.partitioned_slen import partitioned_apsp
from repro.spark_graph.bfs import apsp


@dataclass
class RunStats:
    """Instrumentation for one SQuery: wall time per phase + pass counters."""

    method: str
    n_updates: int = 0
    n_slen_passes: int = 0
    n_stale_sources: int = 0  # sources the SLen steps re-ran BFS from
    n_refine_passes: int = 0
    n_eliminated: int = 0
    n_roots: int = 0  # EH-Tree roots; for UA-GPNM, the regional passes Alg. 6 would run
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + (
                time.perf_counter() - t0
            )


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _net_data_updates(updates: list[Update]):
    """Fold a batch's data updates, in batch order, into net set operations.

    Follows ``apply_updates_data`` step by step, so an edge deleted and
    then re-inserted stays, and an edge inserted at a node the batch later
    deletes goes. Returns:

    * ``dropped``: ids whose node row in ``G_D`` goes (deleted, or replaced
      by an inserted node of the same id);
    * ``cut``: deleted ids, whose edges in ``G_D`` go;
    * ``new_nodes``: ``{id: label}`` rows to add;
    * ``del_edges``: edges of ``G_D`` to remove;
    * ``ins_edges``: edges to add (disjoint from ``del_edges``).
    """
    dropped: set[int] = set()
    cut: set[int] = set()
    new_nodes: dict[int, str] = {}
    del_edges: set[tuple[int, int]] = set()
    ins_edges: set[tuple[int, int]] = set()
    for u in updates:
        if u.graph != "D":
            continue
        if u.kind == "edge_del":
            ins_edges.discard((u.src, u.dst))
            del_edges.add((u.src, u.dst))
        elif u.kind == "node_del":
            dropped.add(u.node)
            cut.add(u.node)
            new_nodes.pop(u.node, None)
            ins_edges = {e for e in ins_edges if u.node not in e}
        elif u.kind == "edge_ins":
            ins_edges.add((u.src, u.dst))
            del_edges.discard((u.src, u.dst))
        elif u.kind == "node_ins":
            dropped.add(u.node)
            new_nodes[u.node] = u.label
            ins_edges.update(u.attach_edges)
            del_edges.difference_update(u.attach_edges)
    return dropped, cut, new_nodes, del_edges, ins_edges


def apply_data_updates_spark(
    spark: SparkSession, dg: DataGraph, updates: list[Update]
) -> DataGraph:
    """``G_D_new`` via literal filters and unions.

    The batch is applied in order, as ``apply_updates_data`` applies it:
    the driver folds it into net deletions and insertions first, and every
    id and edge they name goes into a SQL literal, so no join runs. A
    batch with no data update returns ``dg`` itself.
    """
    dropped, cut, new_nodes, del_edges, ins_edges = _net_data_updates(updates)
    if not (dropped or del_edges or ins_edges):
        return dg
    nodes = dg.nodes
    edges = dg.edges
    if dropped:
        nodes = nodes.filter(f"id NOT IN ({id_list(dropped)})")
    if new_nodes:
        nodes = nodes.unionByName(local_frame(spark, sorted(new_nodes.items()), NODES_SCHEMA))
    if cut:
        edges = edges.filter(f"NOT (src IN ({id_list(cut)}) OR dst IN ({id_list(cut)}))")
    if del_edges or ins_edges:  # an inserted edge already there is dropped, then re-added
        # ``L``: bigint literals, so each pair has the type of (src, dst)
        pairs = ", ".join(f"({a}L, {b}L)" for a, b in sorted(del_edges | ins_edges))
        edges = edges.filter(f"(src, dst) NOT IN ({pairs})")
    if ins_edges:
        edges = edges.unionByName(local_frame(spark, sorted(ins_edges), EDGES_SCHEMA))
    return DataGraph(
        nodes=nodes.select("id", "label").localCheckpoint(eager=True),
        edges=edges.select("src", "dst").localCheckpoint(eager=True),
    )


def _slen_step(
    spark: SparkSession,
    slen: DataFrame,
    dg: DataGraph,
    updates: list[Update],
    slices: Slices,
    build: Callable[..., DataFrame],
) -> tuple[DataFrame, DataGraph, frozenset[int]]:
    """(SLen, graph, stale sources) after data ``updates`` of any kinds and number:
    ``build`` re-runs BFS from the union of their ``source_sets`` read on ``slen``
    (DESIGN.md §3). ``build`` (``slen_step``) places the BFS and checkpoints a
    Spark-placed one, so the caller's timer sees the BFS."""
    stale = frozenset().union(*source_sets(updates, slices).values())
    dg_new = apply_data_updates_spark(spark, dg, updates)
    if stale and stale >= slices.nodes:  # no row stays: build anew, no scan of slen
        return build(dg_new.nodes, dg_new.edges), dg_new, stale
    return build(dg_new.nodes, dg_new.edges, slen, stale), dg_new, stale


def _regional_universe(
    spark: SparkSession,
    gp: PatternGraph,
    nodes: DataFrame,
    prev_matches: DataFrame,
    region: set[int],
) -> DataFrame:
    """Universe for a regional pass: previous matches ∪ label pairs in region.

    Duplicates stay: ``match_fixpoint`` reads the universe into a set.
    """
    if not region:
        return prev_matches
    region_nodes = nodes.filter(f"id IN ({id_list(region)})")
    return prev_matches.unionByName(label_candidates(spark, gp, region_nodes))


# ---------------------------------------------------------------------------
# INC-GPNM [13]
# ---------------------------------------------------------------------------


def inc_gpnm(
    spark: SparkSession,
    dg: DataGraph,
    gp: PatternGraph,
    slen: DataFrame,
    iquery: DataFrame,
    updates: list[Update],
) -> tuple[DataFrame, RunStats]:
    """Per-update incremental GPNM: one affected-area identification, one
    SLen maintenance pass and one regional matching pass *per update*."""
    stats = RunStats(method="INC-GPNM", n_updates=len(updates))
    dg_cur, gp_cur, slen_cur, matches = dg, gp, slen, iquery
    for u in updates:
        with stats.phase("affected_area"):
            if u.graph == "D":
                slices = read_slices([u], slen_cur)
                region = affected_sets([u], slices)[u.uid]
            else:
                slices = read_slices([u], slen_cur, gp_cur, matches, dg_cur.nodes)
                region = candidate_sets([u], gp_cur, slices)[u.uid]
        if u.graph == "D":
            with stats.phase("slen"):
                slen_cur, dg_cur, stale = _slen_step(spark, slen_cur, dg_cur, [u], slices, apsp)
            stats.n_slen_passes += 1
            stats.n_stale_sources += len(stale)
        else:
            gp_cur = apply_updates_pattern(gp_cur, [u])
        with stats.phase("refine"):
            universe = _regional_universe(spark, gp_cur, dg_cur.nodes, matches, region)
            matches = match_fixpoint(spark, gp_cur, slen_cur, dg_cur.nodes, universe)
        stats.n_refine_passes += 1
    with stats.phase("consolidate"):
        final = match_fixpoint(spark, gp_cur, slen_cur, dg_cur.nodes)
    return final, stats


# ---------------------------------------------------------------------------
# EH-GPNM [14]
# ---------------------------------------------------------------------------


def eh_gpnm(
    spark: SparkSession,
    dg: DataGraph,
    gp: PatternGraph,
    slen: DataFrame,
    iquery: DataFrame,
    updates: list[Update],
) -> tuple[DataFrame, RunStats]:
    """Single-graph elimination over ΔG_D only: skips regional passes for
    eliminated data updates; every pattern update still gets its own pass."""
    stats = RunStats(method="EH-GPNM", n_updates=len(updates))
    updates_d = [u for u in updates if u.graph == "D"]
    updates_p = [u for u in updates if u.graph == "P"]

    with stats.phase("detect"):
        aff_sets = affected_sets(updates_d, read_slices(updates_d, slen))
        roots = build_ehtree([(uid, "D", s) for uid, s in aff_sets.items()])
        d_roots = root_uids(roots)
        stats.n_roots = len(d_roots)
        stats.n_eliminated = len(eliminated_uids(roots))

    dg_cur, slen_cur, matches = dg, slen, iquery
    for u in updates_d:
        with stats.phase("slen"):
            slen_cur, dg_cur, stale = _slen_step(
                spark, slen_cur, dg_cur, [u], read_slices([u], slen_cur), apsp
            )
        stats.n_slen_passes += 1
        stats.n_stale_sources += len(stale)
        if u.uid in d_roots:
            with stats.phase("refine"):
                universe = _regional_universe(
                    spark, gp, dg_cur.nodes, matches, aff_sets[u.uid]
                )
                matches = match_fixpoint(spark, gp, slen_cur, dg_cur.nodes, universe)
            stats.n_refine_passes += 1

    gp_cur = gp
    for u in updates_p:
        with stats.phase("affected_area"):
            slices = read_slices([u], slen_cur, gp_cur, matches, dg_cur.nodes)
            region = candidate_sets([u], gp_cur, slices)[u.uid]
        gp_cur = apply_updates_pattern(gp_cur, [u])
        with stats.phase("refine"):
            universe = _regional_universe(spark, gp_cur, dg_cur.nodes, matches, region)
            matches = match_fixpoint(spark, gp_cur, slen_cur, dg_cur.nodes, universe)
        stats.n_refine_passes += 1

    with stats.phase("consolidate"):
        final = match_fixpoint(spark, gp_cur, slen_cur, dg_cur.nodes)
    return final, stats


# ---------------------------------------------------------------------------
# UA-GPNM / UA-GPNM-NoPar (Algorithm 6)
# ---------------------------------------------------------------------------


def ua_gpnm(
    spark: SparkSession,
    dg: DataGraph,
    gp: PatternGraph,
    slen: DataFrame,
    iquery: DataFrame,
    updates: list[Update],
    *,
    partitioned: bool = True,
) -> tuple[DataFrame, RunStats]:
    """Updates-aware GPNM: full DER detection, EH-Tree (its roots counted,
    not refined), one batched SLen step (none without a stale source), one
    matching pass.

    ``partitioned=False`` is the paper's UA-GPNM-NoPar ablation (same
    algorithm; the step runs the BFS kernel over the whole graph as
    one group instead of one group per label partition).
    """
    stats = RunStats(
        method="UA-GPNM" if partitioned else "UA-GPNM-NoPar", n_updates=len(updates)
    )
    updates_d = [u for u in updates if u.graph == "D"]
    updates_p = [u for u in updates if u.graph == "P"]

    with stats.phase("detect"):
        slices = read_slices(updates, slen, gp, iquery, dg.nodes)
        aff_sets = affected_sets(updates_d, slices)
        can_sets = candidate_sets(updates_p, gp, slices)
        cross = detect_cross_eliminations(
            updates_p, updates_d, can_sets, aff_sets, slices
        )
        entries = [(uid, "D", s) for uid, s in aff_sets.items()] + [
            (uid, "P", s) for uid, s in can_sets.items()
        ]
        roots = build_ehtree(entries, cross)
        stats.n_roots = len(root_uids(roots))
        stats.n_eliminated = len(eliminated_uids(roots))

    with stats.phase("slen"):
        build = partitioned_apsp if partitioned else apsp  # looked up here, where tracers patch it
        slen_new, dg_new, stale = _slen_step(spark, slen, dg, updates_d, slices, build)
    stats.n_stale_sources = len(stale)
    stats.n_slen_passes = int(bool(stale))

    with stats.phase("consolidate"):
        final = match_fixpoint(
            spark, apply_updates_pattern(gp, updates), slen_new, dg_new.nodes
        )
    return final, stats


METHODS = {
    "INC-GPNM": inc_gpnm,
    "EH-GPNM": eh_gpnm,
    "UA-GPNM-NoPar": lambda *a, **k: ua_gpnm(*a, partitioned=False, **k),
    "UA-GPNM": lambda *a, **k: ua_gpnm(*a, partitioned=True, **k),
}
