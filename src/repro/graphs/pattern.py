"""Pattern graph ``G_P`` (§III-A of the paper).

Pattern graphs are tiny (6–10 nodes in the paper's experiments), so the
representation is driver-side Python, and matching and DER read it there
(``core.matching``, ``core.der``).

Each edge carries a *bounded path length* ``f_e``: a positive integer
``k`` or the symbol ``*`` (no length constraint). ``*`` is stored as the
sentinel ``STAR`` — any *finite* shortest-path length satisfies it, which
is exactly BGS semantics (a path must exist).
"""
from __future__ import annotations

from dataclasses import dataclass, field

#: Bound sentinel for the paper's "*" (any finite path length).
STAR: int = 1 << 30


@dataclass(frozen=True)
class PatternGraph:
    """Immutable pattern graph: ``nodes[pid] = label``; ``edges = [(pu, pv, bound)]``."""

    nodes: dict[int, str] = field(default_factory=dict)
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        for pu, pv, bound in self.edges:
            if pu not in self.nodes or pv not in self.nodes:
                raise ValueError(f"pattern edge ({pu},{pv}) references unknown node")
            if bound != STAR and bound < 1:
                raise ValueError(f"pattern bound must be >=1 or STAR, got {bound}")

    # -- construction -----------------------------------------------------
    @staticmethod
    def of(nodes: dict[int, str], edges: list[tuple[int, int, int]]) -> "PatternGraph":
        return PatternGraph(nodes=dict(nodes), edges=tuple(edges))

    def with_edge(self, pu: int, pv: int, bound: int) -> "PatternGraph":
        return PatternGraph(nodes=dict(self.nodes), edges=self.edges + ((pu, pv, bound),))

    def without_edge(self, pu: int, pv: int) -> "PatternGraph":
        kept = tuple(e for e in self.edges if (e[0], e[1]) != (pu, pv))
        if len(kept) == len(self.edges):
            raise KeyError(f"pattern edge ({pu},{pv}) not present")
        return PatternGraph(nodes=dict(self.nodes), edges=kept)

    def with_node(self, pid: int, label: str) -> "PatternGraph":
        if pid in self.nodes:
            raise KeyError(f"pattern node {pid} already present")
        nodes = dict(self.nodes)
        nodes[pid] = label
        return PatternGraph(nodes=nodes, edges=self.edges)

    def without_node(self, pid: int) -> "PatternGraph":
        if pid not in self.nodes:
            raise KeyError(f"pattern node {pid} not present")
        nodes = {k: v for k, v in self.nodes.items() if k != pid}
        edges = tuple(e for e in self.edges if pid not in (e[0], e[1]))
        return PatternGraph(nodes=nodes, edges=edges)

    # -- views ------------------------------------------------------------
    def out_edges(self, pid: int) -> list[tuple[int, int, int]]:
        return [e for e in self.edges if e[0] == pid]

    def in_neighbors(self, pid: int) -> list[int]:
        return [pu for pu, pv, _ in self.edges if pv == pid]
