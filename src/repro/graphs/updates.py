"""Update records for ΔG_P / ΔG_D and the experiment workload generator.

The paper's update vocabulary (§III-C, Table II):

* ΔG_D: edge insert/delete (``ΔG_DE±``), node insert/delete (``ΔG_DN±``)
* ΔG_P: edge insert/delete (``ΔG_PE±``), node insert/delete (``ΔG_PN±``)

A data-graph *node insert* carries its incident edges (a vertex joins the
social network together with its first relationships) so that each update
is individually applicable to the original graph — the elimination
detectors (DER-I/II, §IV-B) evaluate every update against the *original*
``G_P``/``G_D``/``SLen``, which Theorems 1–2 justify (order-independence).

The workload generator follows §VII-A scaled to this repo's synthetic
graphs (see DESIGN.md): remove ``m_g`` edges and ``m_g`` nodes, insert
``n_g`` edges and ``n_g`` nodes in ``G_D``; remove/insert ``m_p``/``n_p``
nodes and edges in ``G_P``. ``overlap`` biases data updates into a small
neighborhood so containment (elimination) relationships actually occur,
mirroring the paper's observation that real update streams are clustered.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.graphs.pattern import STAR, PatternGraph

UpdateKind = Literal[
    "edge_ins", "edge_del", "node_ins", "node_del"
]


@dataclass(frozen=True)
class Update:
    """One update ``U_Pi`` / ``U_Di``.

    ``graph``: ``"P"`` (pattern) or ``"D"`` (data).

    Payload by (graph, kind):
      * D edge_ins/edge_del: ``src``, ``dst``
      * D node_ins: ``node``, ``label``, ``attach_edges`` (incident edges)
      * D node_del: ``node``
      * P edge_ins: ``src``, ``dst`` (pattern pids), ``bound``
      * P edge_del: ``src``, ``dst``
      * P node_ins: ``node`` (new pid), ``label``
      * P node_del: ``node`` (pid)
    """

    graph: Literal["P", "D"]
    kind: UpdateKind
    src: int | None = None
    dst: int | None = None
    bound: int | None = None
    node: int | None = None
    label: str | None = None
    attach_edges: tuple[tuple[int, int], ...] = ()
    uid: str = field(default="")

    def __post_init__(self) -> None:
        if not self.uid:
            object.__setattr__(self, "uid", self._default_uid())

    def _default_uid(self) -> str:
        if self.kind in ("edge_ins", "edge_del"):
            return f"U_{self.graph}:{self.kind}:{self.src}->{self.dst}"
        return f"U_{self.graph}:{self.kind}:{self.node}"

    @property
    def is_insertion(self) -> bool:
        return self.kind in ("edge_ins", "node_ins")


# ---------------------------------------------------------------------------
# Applying updates (driver-side plan; DataFrame application lives in callers)
# ---------------------------------------------------------------------------

def apply_updates_pattern(gp: PatternGraph, updates: list[Update]) -> PatternGraph:
    """Return ``G_P_new`` = ``gp`` with all pattern updates applied in order."""
    out = gp
    for u in updates:
        if u.graph != "P":
            continue
        if u.kind == "edge_ins":
            out = out.with_edge(u.src, u.dst, u.bound if u.bound is not None else STAR)
        elif u.kind == "edge_del":
            out = out.without_edge(u.src, u.dst)
        elif u.kind == "node_ins":
            out = out.with_node(u.node, u.label)
        elif u.kind == "node_del":
            out = out.without_node(u.node)
    return out


def apply_updates_data(
    node_labels: dict[int, str],
    edges: list[tuple[int, int]],
    updates: list[Update],
) -> tuple[dict[int, str], list[tuple[int, int]]]:
    """Return updated (labels, edges) with all data updates applied in order.

    Python-side mirror used by generators, tests and the reference oracle;
    the Spark-side application is literal filters and unions in ``core.methods``.
    """
    labels = dict(node_labels)
    eset = list(edges)
    for u in updates:
        if u.graph != "D":
            continue
        if u.kind == "edge_ins":
            if (u.src, u.dst) not in eset:
                eset.append((u.src, u.dst))
        elif u.kind == "edge_del":
            eset = [e for e in eset if e != (u.src, u.dst)]
        elif u.kind == "node_ins":
            labels[u.node] = u.label
            for e in u.attach_edges:
                if e not in eset:
                    eset.append(e)
        elif u.kind == "node_del":
            labels.pop(u.node, None)
            eset = [e for e in eset if u.node not in e]
    return labels, eset


# ---------------------------------------------------------------------------
# Workload generator (§VII-A protocol, scaled)
# ---------------------------------------------------------------------------

def generate_data_updates(
    node_labels: dict[int, str],
    edges: list[tuple[int, int]],
    *,
    m_g: int,
    n_g: int,
    seed: int = 0,
    overlap: float = 0.6,
) -> list[Update]:
    """``m_g`` edge deletions + ``m_g`` node deletions + ``n_g`` edge
    insertions + ``n_g`` node insertions, per the paper's protocol.

    ``overlap`` ∈ [0,1]: fraction of edge updates drawn from the
    neighborhood of a single focus label, which yields overlapping
    affected-node sets and therefore real Type-II eliminations.
    """
    rng = np.random.default_rng(seed)
    node_ids = sorted(node_labels)
    labels = sorted(set(node_labels.values()))
    eset = set(edges)
    updates: list[Update] = []

    focus = labels[rng.integers(0, len(labels))]
    focus_nodes = [n for n in node_ids if node_labels[n] == focus]

    def pick_node(prefer_focus: bool) -> int:
        pool = focus_nodes if prefer_focus and focus_nodes else node_ids
        return int(pool[rng.integers(0, len(pool))])

    # edge deletions — sampled from existing edges (biased to focus label)
    focus_edges = [e for e in edges if node_labels[e[0]] == focus]
    del_edges: list[tuple[int, int]] = []
    for _ in range(m_g):
        pool = focus_edges if (rng.random() < overlap and focus_edges) else edges
        for _ in range(50):
            e = pool[int(rng.integers(0, len(pool)))]
            if e not in del_edges:
                del_edges.append(e)
                break
    updates += [Update(graph="D", kind="edge_del", src=s, dst=d) for s, d in del_edges]

    # node deletions — avoid nodes incident to the deleted edges (keeps
    # updates independently applicable to the original graph)
    touched = {x for e in del_edges for x in e}
    deletable = [n for n in node_ids if n not in touched]
    rng.shuffle(deletable)
    for n in deletable[:m_g]:
        updates.append(Update(graph="D", kind="node_del", node=int(n)))
    deleted_nodes = set(deletable[:m_g])

    # edge insertions — new edges between surviving nodes
    alive = [n for n in node_ids if n not in deleted_nodes]
    added: set[tuple[int, int]] = set()
    tries = 0
    while len(added) < n_g and tries < 200 * max(1, n_g):
        tries += 1
        s = pick_node(rng.random() < overlap)
        d = pick_node(rng.random() < overlap)
        if s == d or s in deleted_nodes or d in deleted_nodes:
            continue
        if (s, d) in eset or (s, d) in added or (s, d) in del_edges:
            continue
        added.add((s, d))
    updates += [Update(graph="D", kind="edge_ins", src=s, dst=d) for s, d in sorted(added)]

    # node insertions — a new node with 1–3 incident edges to alive nodes
    next_id = max(node_ids) + 1
    for i in range(n_g):
        nid = next_id + i
        lbl = labels[int(rng.integers(0, len(labels)))]
        k = int(rng.integers(1, 4))
        attach = []
        for _ in range(k):
            other = int(alive[rng.integers(0, len(alive))])
            attach.append((other, nid) if rng.random() < 0.5 else (nid, other))
        updates.append(
            Update(
                graph="D",
                kind="node_ins",
                node=nid,
                label=lbl,
                attach_edges=tuple(dict.fromkeys(attach)),
            )
        )
    return updates


def generate_pattern_updates(
    gp: PatternGraph,
    data_labels: list[str],
    *,
    m_p: int,
    n_p: int,
    seed: int = 0,
    max_bound: int = 3,
) -> list[Update]:
    """``m_p`` deletions (nodes+edges alternating) and ``n_p`` insertions
    in ``G_P``, per §VII-A (1 ≤ m_p, n_p ≤ 5).

    All updates are applicable to the *original* ``G_P`` and mutually
    independent: deleted edges/nodes are distinct and inserted edges only
    touch surviving original nodes.
    """
    rng = np.random.default_rng(seed + 1)
    updates: list[Update] = []
    pids = sorted(gp.nodes)

    # deletions: alternate edge/node deletions over disjoint elements so
    # every deletion applies regardless of order (node_del implicitly
    # removes incident edges, so a later edge_del must not overlap)
    edges_pool = list(gp.edges)
    rng.shuffle(edges_pool)
    deleted_edges: list[tuple[int, int]] = []
    deleted_nodes: set[int] = set()
    for i in range(m_p):
        if i % 2 == 0:
            while edges_pool and (
                edges_pool[-1][0] in deleted_nodes
                or edges_pool[-1][1] in deleted_nodes
            ):
                edges_pool.pop()
            if not edges_pool:
                continue
            pu, pv, _ = edges_pool.pop()
            deleted_edges.append((pu, pv))
            updates.append(Update(graph="P", kind="edge_del", src=pu, dst=pv))
        else:
            cands = [
                p
                for p in pids
                if p not in deleted_nodes
                and not any(p in (e[0], e[1]) for e in deleted_edges)
            ]
            if not cands:
                continue
            p = int(cands[int(rng.integers(0, len(cands)))])
            deleted_nodes.add(p)
            updates.append(Update(graph="P", kind="node_del", node=p))

    # insertions: new edges between surviving original nodes, new labeled nodes
    alive = [p for p in pids if p not in deleted_nodes]
    existing = {(e[0], e[1]) for e in gp.edges}
    next_pid = max(pids) + 1
    n_new_edges = 0
    tries = 0
    while n_new_edges < (n_p + 1) // 2 and tries < 100 * max(1, n_p) and len(alive) >= 2:
        tries += 1
        pu, pv = rng.choice(alive, size=2, replace=False)
        pu, pv = int(pu), int(pv)
        if (pu, pv) in existing or (pu, pv) in deleted_edges:
            continue
        existing.add((pu, pv))
        b = int(rng.integers(1, max_bound + 1))
        updates.append(Update(graph="P", kind="edge_ins", src=pu, dst=pv, bound=b))
        n_new_edges += 1
    for i in range(n_p - n_new_edges):
        lbl = data_labels[int(rng.integers(0, len(data_labels)))]
        updates.append(Update(graph="P", kind="node_ins", node=next_pid + i, label=lbl))
    return updates
