"""Detecting elimination relationships (§IV, Algorithms 1–3).

* **DER-I** (pattern updates): each ``U_Pi`` gets a *candidate node* set
  ``Can_N(U_Pi)`` — nodes that may enter (``Can_AN``) or leave
  (``Can_RN``) the matching result. ``U_Pa ⊒ U_Pb`` iff
  ``Can_N(U_Pa) ⊇ Can_N(U_Pb)``.
* **DER-II** (data updates): each ``U_Di`` gets the *affected node* set
  ``Aff_N(U_Di)`` — endpoints of pairs whose shortest path length
  changes when ``U_Di`` alone is applied to the original graph
  (order-independent per Theorem 2). ``U_Da ⪰ U_Db`` iff containment.
* **DER-III** (cross-graph): ``U_Pi ⇔ U_Di`` iff
  ``Aff_N(U_Di) ⊇ Can_N(U_Pi)`` and re-evaluating ``U_Pi``'s candidates
  under ``SLen`` updated by ``U_Di`` leaves none — the two updates
  cancel (Example 9: AFF(PM2,TE2) = (∞, 2) ≤ bound 2).

Candidate semantics follow the paper's Example 7 exactly: for an
inserted pattern edge ``(u, u', k)`` a match ``v`` of ``u`` is a removal
candidate iff **no** match of ``u'`` lies within ``k`` (existential
witness — ``PM1`` survives via ``TE1`` although ``TE2`` is unreachable),
and symmetrically for the target side.

Set *computation* is Spark joins; set *comparison* happens driver-side on
collected id sets (≤ |V_D| ids per update — the EH-Tree payload).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.frames import local_frame
from repro.graphs.datagraph import ID_SCHEMA, DataGraph
from repro.graphs.pattern import PatternGraph
from repro.graphs.updates import Update
from repro.spark_graph.slen import (
    SLEN_SCHEMA,
    _walks_via_edge,
    changed_pairs_edge_insert,
    relax_edge_insert,
)

# ---------------------------------------------------------------------------
# DER-I: candidate nodes of pattern updates
# ---------------------------------------------------------------------------


def _matches_of(iquery: DataFrame, pid: int) -> DataFrame:
    return iquery.filter(F.col("pid") == pid).select("vid")


def _nonmatches_with_label(
    nodes: DataFrame, iquery: DataFrame, pid: int, label: str
) -> DataFrame:
    """Data nodes carrying ``label`` that do not currently match ``pid``."""
    labeled = nodes.filter(F.col("label") == label).select(F.col("id").alias("vid"))
    return labeled.join(_matches_of(iquery, pid), "vid", "left_anti")


def candidate_nodes_pattern_update(
    spark: SparkSession,
    u: Update,
    gp: PatternGraph,
    slen: DataFrame,
    iquery: DataFrame,
    nodes: DataFrame,
) -> DataFrame:
    """``Can_N(U_Pi)`` as a single-column (id) DataFrame (Algorithm 1 step 2).

    * edge insert (u→u', k): ``Can_RN`` = matches of either endpoint left
      without a within-``k`` witness on the other side.
    * edge delete: ``Can_AN`` = label-consistent non-matches of both
      endpoints (constraint relaxed — they may join the result).
    * node insert: ``Can_AN`` = all data nodes with the new label.
    * node delete: ``Can_RN`` = its matches, plus ``Can_AN`` = non-matching
      label nodes of its in-neighbors (their constraint disappears).
    """
    if u.kind == "edge_ins":
        pu, pv, k = u.src, u.dst, u.bound
        m_u = _matches_of(iquery, pu)
        m_v = _matches_of(iquery, pv)
        within = (
            slen.filter(F.col("dist") <= F.lit(k))
            .join(m_u.withColumnRenamed("vid", "src"), "src")
            .join(m_v.withColumnRenamed("vid", "dst"), "dst")
        )
        ok_src = within.select(F.col("src").alias("vid")).distinct()
        ok_dst = within.select(F.col("dst").alias("vid")).distinct()
        fail_src = m_u.join(ok_src, "vid", "left_anti")
        fail_dst = m_v.join(ok_dst, "vid", "left_anti")
        return fail_src.unionByName(fail_dst).distinct().select(F.col("vid").alias("id"))

    if u.kind == "edge_del":
        pu, pv = u.src, u.dst
        out = _nonmatches_with_label(nodes, iquery, pu, gp.nodes[pu]).unionByName(
            _nonmatches_with_label(nodes, iquery, pv, gp.nodes[pv])
        )
        return out.distinct().select(F.col("vid").alias("id"))

    if u.kind == "node_ins":
        return nodes.filter(F.col("label") == u.label).select("id").distinct()

    if u.kind == "node_del":
        removed = _matches_of(iquery, u.node)
        added = None
        for pu in gp.in_neighbors(u.node):
            part = _nonmatches_with_label(nodes, iquery, pu, gp.nodes[pu])
            added = part if added is None else added.unionByName(part)
        out = removed if added is None else removed.unionByName(added)
        return out.distinct().select(F.col("vid").alias("id"))

    raise ValueError(f"unknown pattern update kind {u.kind}")


# ---------------------------------------------------------------------------
# DER-II: affected nodes of data updates
# ---------------------------------------------------------------------------


def _endpoints(pairs: DataFrame) -> DataFrame:
    return (
        pairs.select(F.col("src").alias("id"))
        .unionByName(pairs.select(F.col("dst").alias("id")))
        .distinct()
    )


def _pairs_through_edge(slen: DataFrame, a: int, b: int) -> DataFrame:
    """(src, dst) whose shortest path can route through edge (a,b)."""
    return (
        _walks_via_edge(slen, a, b)
        .join(slen, ["src", "dst"])
        .filter(F.col("dist") == F.col("via"))
        .select("src", "dst")
    )


def _pairs_through_node(slen: DataFrame, x: int) -> DataFrame:
    """(src, dst) pairs whose shortest path can route through node ``x``."""
    to_x = slen.filter((F.col("dst") == x) & (F.col("src") != x)).select(
        F.col("src").alias("u"), F.col("dist").alias("d_ux")
    )
    from_x = slen.filter((F.col("src") == x) & (F.col("dst") != x)).select(
        F.col("dst").alias("v"), F.col("dist").alias("d_xv")
    )
    cur = slen.select("src", "dst", F.col("dist").alias("d_cur"))
    return (
        to_x.crossJoin(from_x)
        .join(cur, (cur.src == F.col("u")) & (cur.dst == F.col("v")))
        .filter(F.col("d_cur") == F.col("d_ux") + F.col("d_xv"))
        .select("src", "dst")
    )


def _with_self_row(spark: SparkSession, slen: DataFrame, x: int) -> DataFrame:
    """SLen plus the ``(x, x, 0)`` diagonal row of a newly inserted node."""
    return slen.unionByName(local_frame(spark, [(x, x, 0)], SLEN_SCHEMA))


def slen_after_insertion(spark: SparkSession, slen: DataFrame, u: Update) -> DataFrame:
    """SLen with a single *insertion* update applied (exact, join-only)."""
    if u.kind == "edge_ins":
        return relax_edge_insert(slen, u.src, u.dst)
    if u.kind == "node_ins":
        cur = _with_self_row(spark, slen, u.node)
        for a, b in u.attach_edges:
            # checkpoint between relaxes: chained crossJoin plans otherwise
            # re-evaluate the whole prefix on every downstream action
            cur = relax_edge_insert(cur, a, b).localCheckpoint(eager=True)
        return cur
    raise ValueError(f"{u.kind} is not an insertion")


def affected_nodes_data_update(
    spark: SparkSession, u: Update, slen: DataFrame
) -> DataFrame:
    """``Aff_N(U_Di)`` (Algorithm 2): endpoints of pairs whose SLen entry
    changes when ``u`` alone is applied to the original graph.

    Insertions are exact (min-plus relax comparison). Deletions use the
    complete, conservative "can route through" superset — pairs with an
    equally-short alternative path are included, which only makes
    elimination containment stricter, never unsound.
    """
    if u.kind == "edge_ins":
        return _endpoints(changed_pairs_edge_insert(slen, u.src, u.dst))
    if u.kind == "edge_del":
        return _endpoints(_pairs_through_edge(slen, u.src, u.dst))
    if u.kind == "node_ins":
        cur = _with_self_row(spark, slen, u.node)
        out = local_frame(spark, [(u.node,)], ID_SCHEMA)
        for a, b in u.attach_edges:
            out = out.unionByName(_endpoints(changed_pairs_edge_insert(cur, a, b)))
            cur = relax_edge_insert(cur, a, b).localCheckpoint(eager=True)
        return out.distinct()
    if u.kind == "node_del":
        # pairs rerouted through x, plus every pair (·,x)/(x,·) that
        # simply vanishes (finite → ∞ is a change, cf. Example 8)
        through = _endpoints(_pairs_through_node(slen, u.node))
        touching = (
            slen.filter((F.col("src") == u.node) | (F.col("dst") == u.node))
            .select(F.col("src").alias("id"))
            .unionByName(
                slen.filter(
                    (F.col("src") == u.node) | (F.col("dst") == u.node)
                ).select(F.col("dst").alias("id"))
            )
        )
        return through.unionByName(touching).distinct()
    raise ValueError(f"unknown data update kind {u.kind}")


# ---------------------------------------------------------------------------
# Elimination detection over collected sets
# ---------------------------------------------------------------------------


def detect_single_graph_eliminations(
    sets: dict[str, frozenset[int]]
) -> list[tuple[str, str]]:
    """Pairs ``(a, b)`` with ``set(a) ⊇ set(b)`` and ``a ≠ b`` (Types I/II).

    On ties (equal sets) the lexicographically smaller uid eliminates the
    larger so the relation stays antisymmetric.
    """
    out = []
    uids = sorted(sets)
    for a in uids:
        for b in uids:
            if a == b:
                continue
            if sets[a] >= sets[b] and not (sets[a] == sets[b] and a > b):
                out.append((a, b))
    return out


def detect_cross_eliminations(
    spark: SparkSession,
    updates_p: list[Update],
    updates_d: list[Update],
    can_sets: dict[str, frozenset[int]],
    aff_sets: dict[str, frozenset[int]],
    gp: PatternGraph,
    slen: DataFrame,
    iquery: DataFrame,
    dg: DataGraph,
) -> list[tuple[str, str]]:
    """DER-III: ``[(p_uid, d_uid)]`` mutually-eliminating cross pairs.

    Checks the paper's Step 3 precondition ``Aff ⊇ Can`` driver-side,
    then re-evaluates the pattern update's candidates under SLen with the
    data update applied; an empty re-evaluation means the GPNM result is
    unchanged by the pair. Only insertion-kind data updates are
    re-evaluated (a deletion never shortens a path, so it cannot repair a
    tightening pattern update; cf. Example 9 which pairs two insertions).
    """
    out = []
    slen_new_cache: dict[str, DataFrame] = {}
    for up in updates_p:
        can = can_sets[up.uid]
        if not can:
            continue
        for ud in updates_d:
            if not ud.is_insertion:
                continue
            if not aff_sets[ud.uid] >= can:
                continue
            if ud.uid not in slen_new_cache:
                # one SLen_new per data update, shared across all U_P pairs
                slen_new_cache[ud.uid] = slen_after_insertion(
                    spark, slen, ud
                ).localCheckpoint(eager=True)
            residual = candidate_nodes_pattern_update(
                spark, up, gp, slen_new_cache[ud.uid], iquery, dg.nodes
            )
            if residual.isEmpty():
                out.append((up.uid, ud.uid))
    return out
