"""The benchmark's workloads: graph, update batch, and their reference answers.

Graphs are the repo's synthetic SNAP stand-ins (``repro.synth_graph``),
scaled down, and batches cut to one or two updates, so that one run with its
set-ups and warm-up takes about a minute on a 4-core box: an SQuery's time
is dominated by per-job Spark latency, which grows with the number of
updates, not with graph size. The graph is fixed by its
``DatasetSpec.seed``; the workload seed picks the pattern and the batch.
"""
from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

from repro.bench.harness import PreparedQuery, prepare_query
from repro.graphs.updates import apply_updates_data, apply_updates_pattern
from repro.reference import ref_apsp, ref_gpnm
from repro.synth_graph import DATASETS, dataset_graph


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # repo dataset this graph is scaled from
    n_nodes: int
    n_edges: int
    m_g: int
    n_g: int
    m_p: int
    n_p: int
    why: str
    kinds: tuple[str, ...] = ("edge_ins", "edge_del", "node_ins", "node_del")
    pattern_nodes: int = 8

    @property
    def dataset(self) -> str:
        """Name under which the scaled graph is registered in ``DATASETS``."""
        return f"{self.base}@{self.n_nodes}"

    def register(self) -> None:
        """Add the scaled graph to the repo's dataset registry (idempotent)."""
        spec = dataclasses.replace(
            DATASETS[self.base], name=self.dataset, n_nodes=self.n_nodes, n_edges=self.n_edges
        )
        DATASETS[self.dataset] = spec


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "email-mixed", "email-lite", 100, 800, m_g=0, n_g=1, m_p=0, n_p=1,
            kinds=("edge_ins",),
            why="one edge insertion in each graph: the only workload with updates to both, so DER-III and the cross-graph EH-Tree run",
        ),
        Workload(
            "email-pattern", "email-lite", 100, 800, m_g=0, n_g=0, m_p=1, n_p=0,
            why="one pattern edge deletion: G_D is unchanged, so DER-II/III do no work and matching plus DER-I dominate",
        ),
    )
}


def prepare(spark, w: Workload, seed: int) -> PreparedQuery:
    """``bench.harness.prepare_query`` on the workload, keeping only its update kinds."""
    w.register()
    q = prepare_query(
        spark,
        dataset=w.dataset,
        pattern_nodes=w.pattern_nodes,
        m_g=w.m_g,
        n_g=w.n_g,
        m_p=w.m_p,
        n_p=w.n_p,
        seed=seed,
    )
    return dataclasses.replace(q, updates=[u for u in q.updates if u.kind in w.kinds])


def normalize(answer: dict[int, set[int]]) -> dict[int, frozenset[int]]:
    """Drop empty match sets: ``ref_gpnm`` lists them, a collected frame cannot."""
    return {pid: frozenset(v) for pid, v in answer.items() if v}


def reference(q: PreparedQuery) -> tuple[dict[int, frozenset[int]], dict]:
    """``ref_gpnm`` on the updated graphs, plus the instance's input record."""
    labels, edges = dataset_graph(q.dataset)
    new_labels, new_edges = apply_updates_data(labels, edges, q.updates)
    expected = normalize(ref_gpnm(apply_updates_pattern(q.gp, q.updates), new_labels, new_edges))
    spec = DATASETS[q.dataset]
    record = {
        "dataset": q.dataset,
        "stands_for": {"paper": spec.paper_name, "nodes": spec.paper_nodes, "edges": spec.paper_edges},
        "nodes": len(labels),
        "edges": len(edges),
        "labels": len(set(labels.values())),
        "slen_rows": len(ref_apsp(sorted(labels), edges)),
        "slen_rows_new": len(ref_apsp(sorted(new_labels), new_edges)),
        "updates_D": dict(Counter(u.kind for u in q.updates if u.graph == "D")),
        "updates_P": dict(Counter(u.kind for u in q.updates if u.graph == "P")),
        "pattern_nodes": len(q.gp.nodes),
        "pattern_edges": len(q.gp.edges),
        "iquery_pairs": q.iquery.count(),
        "squery_pairs": sum(len(v) for v in expected.values()),
    }
    return expected, record
