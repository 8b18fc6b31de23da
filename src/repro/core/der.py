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

Reads. ``read_slices`` fetches everything a batch needs in at most two
Arrow reads (``toPandas``), whatever the batch size; every set then
comes from driver-side set arithmetic over what was read:

1. if the batch has pattern updates: the IQuery pairs, with the data
   nodes of each label a pattern update relaxes;
2. one ``slen.filter(<SQL IN lists>)`` of the |V|-sized slices
   ``col(x) = {s: d(s,x)}`` and ``row(x) = {t: d(x,t)}`` of each node a
   data update names, with every ``(x, x, 0)`` row, plus, for the inserted
   pattern edges ``(u, u', k)``, the rows ``src ∈ M_u, dst ∈ M_u', dist ≤ k``.

The rules over those slices (a missing row is ∞; every node has its
``(x, x, 0)`` row; proofs in DESIGN.md §3). Each ``Aff_N`` is a source
half ``_sources`` united with a target half ``_targets``:

* edge_ins (a,b): ``{s ∈ col(a): d(s,a)+1 < d(s,b)} ∪
  {t ∈ row(b): 1+d(b,t) < d(a,t)}`` — exactly the changed endpoints;
* edge_del (a,b): ``{s: d(s,b) = d(s,a)+1} ∪ {t: d(a,t) = d(b,t)+1}`` —
  endpoints of the pairs whose shortest path can route through (a,b), a
  conservative superset (an equally short alternative may exist), which
  only makes containment stricter, never unsound;
* node_del x: ``col(x) ∪ row(x)``;
* node_ins x: ``{x} ∪ col(a) for each (a,x) ∪ row(b) for each (x,b)``;
* DER-III: under ``d'(s,t) = min(d(s,t), pre(s) + post(t))``, where
  ``pre(s) + post(t)`` is ``d(s,a)+1+d(b,t)`` for an inserted edge and
  ``d(s,a)+2+d(b,t)`` through an inserted node, so SLen_new is never built.

The rules assume what they read: ``read_slices`` raises ``ValueError``
for a data update that names a node absent from SLen, for a ``node_ins``
attach edge that does not touch its node, and for a ``node_ins`` of a
node SLen already has (the node_ins rule counts on every path through
it being new).

``source_sets`` gives the source halves alone: the sources whose SLen
rows an update can change, which the SLen step (per update, or their union
per batch) re-runs BFS from. ``affected_nodes_data_update`` and
``candidate_nodes_pattern_update`` are the same computation for a batch
of one, as a DataFrame. ``slen_after_insertion`` applies one edge
insertion by ``relax_edge_insert`` (Tables V/VI).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.frames import id_list, local_frame
from repro.graphs.datagraph import ID_SCHEMA
from repro.graphs.pattern import STAR, PatternGraph
from repro.graphs.updates import Update
from repro.spark_graph.slen import relax_edge_insert


@dataclass(frozen=True)
class Slices:
    """What DER reads for one batch: SLen slices and the IQuery.

    ``col[x] = {s: d(s,x)}`` and ``row[x] = {t: d(x,t)}`` for each node a
    data update names, and ``nodes`` all of SLen's; ``near[s] = {t: d(s,t)}``
    for the inserted pattern edges' match pairs within their bound;
    ``matches[pid]`` the IQuery; ``labeled[label]`` the data nodes of each
    label a pattern update needs.
    """

    nodes: set[int]
    col: dict[int, dict[int, int]]
    row: dict[int, dict[int, int]]
    near: dict[int, dict[int, int]]
    matches: dict[int, set[int]]
    labeled: dict[str, set[int]]


def _bound(u: Update) -> int:
    return STAR if u.bound is None else u.bound


def _attach(u: Update) -> tuple[list[int], list[int]]:
    """(tails of the edges into ``u.node``, heads of the edges out of it)."""
    x = u.node
    for e in u.attach_edges:
        if x not in e:
            raise ValueError(f"{u.uid}: attach edge {e} does not touch node {x}")
    return (
        [a for a, b in u.attach_edges if b == x and a != x],
        [b for a, b in u.attach_edges if a == x and b != x],
    )


def _slice_nodes(u: Update) -> tuple[list[int], list[int]]:
    """(nodes whose column, nodes whose row) data update ``u`` reads."""
    if u.kind in ("edge_ins", "edge_del"):
        return [u.src, u.dst], [u.src, u.dst]
    if u.kind == "node_del":
        return [u.node], [u.node]
    if u.kind == "node_ins":
        return _attach(u)
    raise ValueError(f"unknown data update kind {u.kind}")


def _relaxed_labels(u: Update, gp: PatternGraph) -> list[str]:
    """Labels whose non-matching nodes pattern update ``u`` may add."""
    if u.kind == "edge_del":
        return [gp.nodes[u.src], gp.nodes[u.dst]]
    if u.kind == "node_ins":
        return [u.label]
    if u.kind == "node_del":
        return [gp.nodes[pu] for pu in gp.in_neighbors(u.node)]
    return []


def _read_pattern_side(
    updates_p: list[Update], gp: PatternGraph, iquery: DataFrame, nodes: DataFrame
) -> tuple[dict[int, set[int]], dict[str, set[int]]]:
    """One read: the IQuery pairs, and the nodes of the labels ``updates_p`` relax."""
    labels = sorted({lbl for u in updates_p for lbl in _relaxed_labels(u, gp)})
    read = iquery.select("pid", "vid", F.lit(None).cast("string").alias("label"))
    if labels:
        read = read.unionByName(
            nodes.filter(F.col("label").isin(*labels)).select(
                F.lit(0).cast("long").alias("pid"), F.col("id").alias("vid"), "label"
            )
        )
    pdf = read.toPandas()
    matches: dict[int, set[int]] = {}
    labeled: dict[str, set[int]] = {lbl: set() for lbl in labels}
    for pid, vid, lbl in zip(pdf["pid"].tolist(), pdf["vid"].tolist(), pdf["label"].tolist()):
        if lbl is None:
            matches.setdefault(pid, set()).add(vid)
        else:
            labeled[lbl].add(vid)
    return matches, labeled


def read_slices(
    updates: list[Update],
    slen: DataFrame,
    gp: PatternGraph | None = None,
    iquery: DataFrame | None = None,
    nodes: DataFrame | None = None,
) -> Slices:
    """Everything DER needs for ``updates``, in at most two Arrow reads.

    ``gp``, ``iquery`` and ``nodes`` are needed only for pattern updates.
    Raises ``ValueError`` if a data update names a node that has no
    ``(x, x, 0)`` row in SLen, if a ``node_ins`` attach edge misses its
    node, or if a ``node_ins`` inserts a node SLen already has.
    """
    updates_d = [u for u in updates if u.graph == "D"]
    updates_p = [u for u in updates if u.graph == "P"]
    new_nodes = {u.node for u in updates_d if u.kind == "node_ins"}
    col_ids: set[int] = set()
    row_ids: set[int] = set()
    for u in updates_d:
        cols, rows = _slice_nodes(u)
        col_ids.update(cols)
        row_ids.update(rows)

    matches: dict[int, set[int]] = {}
    labeled: dict[str, set[int]] = {}
    if updates_p:
        matches, labeled = _read_pattern_side(updates_p, gp, iquery, nodes)
    new_edges_p = [u for u in updates_p if u.kind == "edge_ins"]
    near_src = set().union(*(matches.get(u.src, ()) for u in new_edges_p))
    near_dst = set().union(*(matches.get(u.dst, ()) for u in new_edges_p))
    horizon = max((_bound(u) for u in new_edges_p), default=0)

    clauses = []
    if updates_d:
        clauses.append("src = dst")
    if col_ids:
        clauses.append(f"dst IN ({id_list(col_ids)})")
    if row_ids:
        clauses.append(f"src IN ({id_list(row_ids)})")
    if near_src and near_dst:
        pairs = f"src IN ({id_list(near_src)}) AND dst IN ({id_list(near_dst)})"
        if horizon != STAR:
            pairs += f" AND dist <= {horizon}"
        clauses.append(f"({pairs})")

    col: dict[int, dict[int, int]] = {x: {} for x in col_ids}
    row: dict[int, dict[int, int]] = {x: {} for x in row_ids}
    near_rows: dict[int, dict[int, int]] = {}
    present: set[int] = set()  # nodes whose (x, x, 0) row was read
    if clauses:
        pdf = slen.filter(" OR ".join(clauses)).select("src", "dst", "dist").toPandas()
        for s, t, d in zip(pdf["src"].tolist(), pdf["dst"].tolist(), pdf["dist"].tolist()):
            if s == t:
                present.add(s)
            if t in col:
                col[t][s] = d
            if s in row:
                row[s][t] = d
            if s in near_src and t in near_dst and d <= horizon:
                near_rows.setdefault(s, {})[t] = d
    missing = (col_ids | row_ids) - present
    if missing:
        raise ValueError(f"data updates name nodes missing from SLen: {sorted(missing)}")
    if new_nodes & present:
        raise ValueError(f"node_ins of nodes already in SLen: {sorted(new_nodes & present)}")
    return Slices(nodes=present, col=col, row=row, near=near_rows, matches=matches, labeled=labeled)


# ---------------------------------------------------------------------------
# DER-II: affected nodes of data updates
# ---------------------------------------------------------------------------


def _sources(u: Update, s: Slices) -> set[int]:
    """Sources ``s`` of the pairs ``(s, t)`` whose distance data update ``u`` can change."""
    if u.kind == "edge_ins":
        to_a, to_b = s.col[u.src], s.col[u.dst]
        return {x for x, d in to_a.items() if d + 1 < to_b.get(x, inf)}
    if u.kind == "edge_del":
        to_a, to_b = s.col[u.src], s.col[u.dst]
        return {x for x, d in to_a.items() if to_b.get(x) == d + 1}
    if u.kind == "node_del":
        return set(s.col[u.node])
    if u.kind == "node_ins":
        out = {u.node}
        for a in _attach(u)[0]:
            out.update(s.col[a])
        return out
    raise ValueError(f"unknown data update kind {u.kind}")


def _targets(u: Update, s: Slices) -> set[int]:
    """Targets ``t`` of the pairs ``(s, t)`` whose distance data update ``u`` can change."""
    if u.kind == "edge_ins":
        from_a, from_b = s.row[u.src], s.row[u.dst]
        return {t for t, d in from_b.items() if d + 1 < from_a.get(t, inf)}
    if u.kind == "edge_del":
        from_a, from_b = s.row[u.src], s.row[u.dst]
        return {t for t, d in from_b.items() if from_a.get(t) == d + 1}
    if u.kind == "node_del":
        return set(s.row[u.node])
    if u.kind == "node_ins":
        out: set[int] = set()
        for b in _attach(u)[1]:
            out.update(s.row[b])
        return out
    raise ValueError(f"unknown data update kind {u.kind}")


def affected_sets(updates_d: list[Update], slices: Slices) -> dict[str, frozenset[int]]:
    """``{uid: Aff_N(U_Di)}`` (Algorithm 2), each against the original graph."""
    return {u.uid: frozenset(_sources(u, slices) | _targets(u, slices)) for u in updates_d}


def source_sets(updates_d: list[Update], slices: Slices) -> dict[str, frozenset[int]]:
    """``{uid: sources whose SLen row U_Di alone can change}``: the source half
    of ``Aff_N``, which the SLen step re-runs BFS from."""
    return {u.uid: frozenset(_sources(u, slices)) for u in updates_d}


# ---------------------------------------------------------------------------
# DER-I: candidate nodes of pattern updates
# ---------------------------------------------------------------------------


def _unwitnessed(
    m_u: set[int],
    m_v: set[int],
    k: int,
    near: dict[int, dict[int, int]],
    pre: dict[int, int] | None = None,
    post: dict[int, int] | None = None,
) -> set[int]:
    """Matches of ``u`` with no match of ``u'`` within ``k``, and vice versa.

    With ``pre``/``post``, a pair's distance is ``min(d(s,t), pre[s] + post[t])``:
    the pair's distance once an insertion adds paths through it.
    """
    ok_src: set[int] = set()
    ok_dst: set[int] = set()
    for s in m_u:
        for t, d in near.get(s, {}).items():
            if d <= k and t in m_v:
                ok_src.add(s)
                ok_dst.add(t)
    if pre is not None:
        best_post = min((post[t] for t in m_v if t in post), default=inf)
        best_pre = min((pre[s] for s in m_u if s in pre), default=inf)
        ok_src |= {s for s in m_u if pre.get(s, inf) + best_post <= k}
        ok_dst |= {t for t in m_v if best_pre + post.get(t, inf) <= k}
    return (m_u - ok_src) | (m_v - ok_dst)


def _candidates(u: Update, gp: PatternGraph, s: Slices) -> frozenset[int]:
    """``Can_N(U_Pi)`` (Algorithm 1 step 2).

    * edge insert (u→u', k): ``Can_RN`` = matches of either endpoint left
      without a within-``k`` witness on the other side.
    * edge delete: ``Can_AN`` = label-consistent non-matches of both
      endpoints (constraint relaxed — they may join the result).
    * node insert: ``Can_AN`` = all data nodes with the new label.
    * node delete: ``Can_RN`` = its matches, plus ``Can_AN`` = non-matching
      label nodes of its in-neighbors (their constraint disappears).
    """

    def matches(pid: int) -> set[int]:
        return s.matches.get(pid, set())

    def nonmatches(pid: int) -> set[int]:
        return s.labeled[gp.nodes[pid]] - matches(pid)

    if u.kind == "edge_ins":
        return frozenset(_unwitnessed(matches(u.src), matches(u.dst), _bound(u), s.near))
    if u.kind == "edge_del":
        return frozenset(nonmatches(u.src) | nonmatches(u.dst))
    if u.kind == "node_ins":
        return frozenset(s.labeled[u.label])
    if u.kind == "node_del":
        out = set(matches(u.node))
        for pu in gp.in_neighbors(u.node):
            out |= nonmatches(pu)
        return frozenset(out)
    raise ValueError(f"unknown pattern update kind {u.kind}")


def candidate_sets(
    updates_p: list[Update], gp: PatternGraph, slices: Slices
) -> dict[str, frozenset[int]]:
    """``{uid: Can_N(U_Pi)}``, each against the original ``G_P`` and IQuery."""
    return {u.uid: _candidates(u, gp, slices) for u in updates_p}


# ---------------------------------------------------------------------------
# DER-III: cross-graph eliminations
# ---------------------------------------------------------------------------


def _nearest(dists: list[dict[int, int]], step: int) -> dict[int, int]:
    """``{x: step + the least d over dists}``."""
    out: dict[int, int] = {}
    for dist in dists:
        for x, d in dist.items():
            out[x] = min(out.get(x, inf), d + step)
    return out


def residual_candidates(up: Update, ud: Update, slices: Slices) -> frozenset[int]:
    """``Can_N`` of pattern edge insertion ``up`` under SLen with data
    insertion ``ud`` applied: ``ud`` adds a path ``s ⇝ t`` of length
    ``pre[s] + post[t]`` (``d(s,a)+1+d(b,t)``, or ``d(s,a)+2+d(b,t)``
    through an inserted node)."""
    if ud.kind == "edge_ins":
        pre, post = _nearest([slices.col[ud.src]], 1), slices.row[ud.dst]
    else:
        ins, outs = _attach(ud)
        pre = _nearest([slices.col[a] for a in ins], 1)
        post = _nearest([slices.row[b] for b in outs], 1)
    m_u = slices.matches.get(up.src, set())
    m_v = slices.matches.get(up.dst, set())
    return frozenset(_unwitnessed(m_u, m_v, _bound(up), slices.near, pre, post))


def detect_cross_eliminations(
    updates_p: list[Update],
    updates_d: list[Update],
    can_sets: dict[str, frozenset[int]],
    aff_sets: dict[str, frozenset[int]],
    slices: Slices,
) -> list[tuple[str, str]]:
    """DER-III: ``[(p_uid, d_uid)]`` mutually-eliminating cross pairs.

    Checks the paper's Step 3 precondition ``Aff ⊇ Can``, then
    re-evaluates the pattern update's candidates with the data update's
    new paths added; an empty re-evaluation means the GPNM result is
    unchanged by the pair. Only an inserted pattern edge's candidates
    depend on SLen, so only those can empty. Only insertion-kind data
    updates are paired (a deletion never shortens a path, so it cannot
    repair a tightening pattern update; cf. Example 9 which pairs two
    insertions).
    """
    return [
        (up.uid, ud.uid)
        for up in updates_p
        if up.kind == "edge_ins" and can_sets[up.uid]
        for ud in updates_d
        if ud.is_insertion
        and aff_sets[ud.uid] >= can_sets[up.uid]
        and not residual_candidates(up, ud, slices)
    ]


# ---------------------------------------------------------------------------
# One update at a time (INC-GPNM, EH-GPNM's pattern passes)
# ---------------------------------------------------------------------------


def _id_frame(spark: SparkSession, ids: frozenset[int]) -> DataFrame:
    return local_frame(spark, [(i,) for i in sorted(ids)], ID_SCHEMA)


def affected_nodes_data_update(
    spark: SparkSession, u: Update, slen: DataFrame
) -> DataFrame:
    """``Aff_N(U_Di)`` of one data update as a single-column (id) DataFrame."""
    return _id_frame(spark, affected_sets([u], read_slices([u], slen))[u.uid])


def candidate_nodes_pattern_update(
    spark: SparkSession,
    u: Update,
    gp: PatternGraph,
    slen: DataFrame,
    iquery: DataFrame,
    nodes: DataFrame,
) -> DataFrame:
    """``Can_N(U_Pi)`` of one pattern update as a single-column (id) DataFrame."""
    slices = read_slices([u], slen, gp, iquery, nodes)
    return _id_frame(spark, candidate_sets([u], gp, slices)[u.uid])


def slen_after_insertion(spark: SparkSession, slen: DataFrame, u: Update) -> DataFrame:
    """SLen with a single edge insertion applied (exact, join-only)."""
    if u.kind != "edge_ins":
        raise ValueError(f"{u.kind} is not an edge insertion")
    return relax_edge_insert(slen, u.src, u.dst)
