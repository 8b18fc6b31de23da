"""Pure-Python mirror of DER's slice rules (``core.der``), for differential tests.

Each rule is written as DESIGN.md §3 states it, over a whole SLen dict
``{(src, dst): dist}`` (finite entries only), with no Spark and none of
``core.der``'s read plan: ``col(x)``/``row(x)`` are scans of the dict,
and DER-III evaluates ``d'(s,t)`` pair by pair. ``tests`` compare it with
the definitions (``reference.ref_affected_nodes``, through-pair sets,
SLen rebuilt by ``ref_apsp``, the sources whose row changes) and with
``core.der``'s Spark reads.
"""
from __future__ import annotations

from repro.graphs.pattern import STAR, PatternGraph
from repro.graphs.updates import Update
from repro.reference import INF

Slen = dict[tuple[int, int], int]


def _col(slen: Slen, x: int) -> dict[int, int]:
    return {s: d for (s, t), d in slen.items() if t == x}


def _row(slen: Slen, x: int) -> dict[int, int]:
    return {t: d for (s, t), d in slen.items() if s == x}


def _ins_outs(u: Update) -> tuple[list[int], list[int]]:
    ins = [a for a, b in u.attach_edges if b == u.node and a != u.node]
    outs = [b for a, b in u.attach_edges if a == u.node and b != u.node]
    return ins, outs


def mirror_affected(slen: Slen, u: Update) -> set[int]:
    """``Aff_N(u)`` by the slice rules."""
    if u.kind in ("edge_ins", "edge_del"):
        a, b = u.src, u.dst
        to_a, to_b, from_a, from_b = _col(slen, a), _col(slen, b), _row(slen, a), _row(slen, b)
        if u.kind == "edge_ins":
            return {s for s in to_a if to_a[s] + 1 < to_b.get(s, INF)} | {
                t for t in from_b if 1 + from_b[t] < from_a.get(t, INF)
            }
        return {s for s in to_a if to_b.get(s) == to_a[s] + 1} | {
            t for t in from_b if from_a.get(t) == from_b[t] + 1
        }
    if u.kind == "node_del":
        return set(_col(slen, u.node)) | set(_row(slen, u.node))
    if u.kind == "node_ins":
        ins, outs = _ins_outs(u)
        out = {u.node}
        for a in ins:
            out |= set(_col(slen, a))
        for b in outs:
            out |= set(_row(slen, b))
        return out
    raise ValueError(u.kind)


def mirror_sources(slen: Slen, u: Update) -> set[int]:
    """The sources whose SLen row ``u`` can change: the source half of ``Aff_N``."""
    if u.kind in ("edge_ins", "edge_del"):
        to_a, to_b = _col(slen, u.src), _col(slen, u.dst)
        if u.kind == "edge_ins":
            return {s for s in to_a if to_a[s] + 1 < to_b.get(s, INF)}
        return {s for s in to_a if to_b.get(s) == to_a[s] + 1}
    if u.kind == "node_del":
        return set(_col(slen, u.node))
    if u.kind == "node_ins":
        out = {u.node}
        for a in _ins_outs(u)[0]:
            out |= set(_col(slen, a))
        return out
    raise ValueError(u.kind)


def _can_rn(m_u: set[int], m_v: set[int], bound: int, dist) -> set[int]:
    """Matches on either side of edge (u, u', bound) with no witness under ``dist``."""

    def ok(s: int, t: int) -> bool:
        return dist(s, t) <= bound

    return {s for s in m_u if not any(ok(s, t) for t in m_v)} | {
        t for t in m_v if not any(ok(s, t) for s in m_u)
    }


def mirror_candidates(
    u: Update,
    gp: PatternGraph,
    matches: dict[int, set[int]],
    labels: dict[int, str],
    slen: Slen,
) -> set[int]:
    """``Can_N(u)`` (Example 7's existential-witness semantics)."""

    def m(pid: int) -> set[int]:
        return matches.get(pid, set())

    def nonmatches(pid: int) -> set[int]:
        return {v for v, lbl in labels.items() if lbl == gp.nodes[pid]} - m(pid)

    if u.kind == "edge_ins":
        bound = STAR if u.bound is None else u.bound
        return _can_rn(m(u.src), m(u.dst), bound, lambda s, t: slen.get((s, t), INF))
    if u.kind == "edge_del":
        return nonmatches(u.src) | nonmatches(u.dst)
    if u.kind == "node_ins":
        return {v for v, lbl in labels.items() if lbl == u.label}
    if u.kind == "node_del":
        out = set(m(u.node))
        for pu in gp.in_neighbors(u.node):
            out |= nonmatches(pu)
        return out
    raise ValueError(u.kind)


def mirror_residual(
    up: Update, ud: Update, matches: dict[int, set[int]], slen: Slen
) -> set[int]:
    """``Can_RN`` of pattern edge insertion ``up`` under SLen with insertion ``ud``:
    ``d'(s,t) = min(d(s,t), d(s,a)+1+d(b,t))``, through a new node ``+2``."""
    if ud.kind == "edge_ins":
        ends = [(ud.src, ud.dst, 1)]
    else:
        ins, outs = _ins_outs(ud)
        ends = [(a, b, 2) for a in ins for b in outs]

    def dist(s: int, t: int):
        via = [slen.get((s, a), INF) + hops + slen.get((b, t), INF) for a, b, hops in ends]
        return min([slen.get((s, t), INF), *via])

    bound = STAR if up.bound is None else up.bound
    return _can_rn(matches.get(up.src, set()), matches.get(up.dst, set()), bound, dist)


def mirror_detect(
    updates: list[Update],
    gp: PatternGraph,
    matches: dict[int, set[int]],
    labels: dict[int, str],
    slen: Slen,
) -> tuple[dict[str, set[int]], dict[str, set[int]], list[tuple[str, str]]]:
    """(``Aff_N`` by uid, ``Can_N`` by uid, DER-III pairs) of one batch.

    Only an inserted pattern edge's candidates depend on SLen, so only
    those are re-evaluated for DER-III.
    """
    updates_d = [u for u in updates if u.graph == "D"]
    updates_p = [u for u in updates if u.graph == "P"]
    aff = {u.uid: mirror_affected(slen, u) for u in updates_d}
    can = {u.uid: mirror_candidates(u, gp, matches, labels, slen) for u in updates_p}
    cross = [
        (up.uid, ud.uid)
        for up in updates_p
        if up.kind == "edge_ins" and can[up.uid]
        for ud in updates_d
        if ud.is_insertion
        and aff[ud.uid] >= can[up.uid]
        and not mirror_residual(up, ud, matches, slen)
    ]
    return aff, can, cross
