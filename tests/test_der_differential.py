"""DER's slice rules against their definitions, and Spark's reads against the rules.

1. The pure-Python mirror (``reference_der``) against the definitions,
   over 200 seeds on label-clustered graphs and on sparse random graphs
   (where many pairs are ∞): ``Aff_N`` of an insertion is exactly
   ``ref_affected_nodes``; of a deletion, exactly the endpoints of the
   pairs whose shortest path can route through the deleted edge or node;
   DER-III equals re-evaluating ``Can_N`` on SLen rebuilt by ``ref_apsp``.
   The source rule (``mirror_sources``) covers every source whose row
   changes (exactly so for an edge insertion), and keeping the other rows
   while re-running BFS from those sources rebuilds SLen exactly, for one
   update and for a mixed batch (the union of the rules, each read on the
   SLen before the batch).
2. ``core.der``'s batched sets, read from Spark, against the mirror on
   batches mixing all eight update kinds, Fig. 1's included, and on two
   batches whose DER-III outcome turns on the exact length of the
   inserted paths; on the same batches, the batched SLen step under both
   builders equals ``ref_apsp`` of the updated graph.
   The same test adds builds and steps on either side of
   ``DRIVER_BFS_ROWS`` and checks that only those above it run
   ``grouped_bfs``.
"""
from collections import Counter

import pytest

from repro.core.der import (
    affected_sets,
    candidate_sets,
    detect_cross_eliminations,
    read_slices,
    residual_candidates,
    source_sets,
)
from repro.core.matching import match_fixpoint, matches_to_dict
from repro.core.methods import _slen_step
from repro.graphs.datagraph import DataGraph
from repro.graphs.pattern import PatternGraph
from repro.graphs.updates import (
    Update,
    apply_updates_data,
    generate_data_updates,
    generate_pattern_updates,
)
from repro.reference import ref_affected_nodes, ref_apsp, ref_match
from repro.reference_der import (
    mirror_affected,
    mirror_candidates,
    mirror_detect,
    mirror_residual,
    mirror_sources,
)
from repro.partition.partitioned_slen import partitioned_apsp
from repro.spark_graph import bfs
from repro.spark_graph.bfs import apsp
from repro.synth_graph import fig1_example
from tests.util import random_edges, tiny_graph, tiny_pattern

MIRROR_SEEDS = range(200)
SPARK_SEEDS = range(20)


def _graph(kind: str, seed: int, n: int):
    """A label-clustered graph, or a sparse uniform one with ∞ pairs."""
    if kind == "social":
        return tiny_graph(seed, n=n, e=3 * n, n_labels=3)
    labels = {i: "ABC"[i % 3] for i in range(n)}
    return labels, random_edges(seed, n, n + n // 4)


def _through(slen, u) -> set[int]:
    """Endpoints of the pairs whose shortest path can route through the deleted
    edge or node, plus, for a node, every pair it ends (finite → ∞)."""
    if u.kind == "edge_del":
        a, b = u.src, u.dst
        hops = 1
    else:
        a = b = u.node
        hops = 0
    out = set()
    for (s, t), d in slen.items():
        if (s, a) in slen and (b, t) in slen and slen[(s, a)] + hops + slen[(b, t)] == d:
            out |= {s, t}
        if u.kind == "node_del" and u.node in (s, t):
            out |= {s, t}
    return out


def _batch(labels, edges, gp, seed, m_g):
    """``m_g`` of each data update kind; a pattern edge and a pattern node
    deleted, two pattern edges and a pattern node inserted."""
    vocab = sorted(set(labels.values()))
    return generate_data_updates(labels, edges, m_g=m_g, n_g=m_g, seed=seed) + (
        generate_pattern_updates(gp, vocab, m_p=2, n_p=3, seed=seed)
    )


@pytest.mark.parametrize("kind", ["social", "sparse"])
def test_mirror_equals_definitions(kind):
    kinds = Counter()
    residuals_checked = 0
    for seed in MIRROR_SEEDS:
        labels, edges = _graph(kind, seed, 18)
        old = ref_apsp(sorted(labels), edges)
        gp = tiny_pattern(seed, sorted(set(labels.values())), n_nodes=3)
        matches = ref_match(gp, labels, old)
        updates = _batch(labels, edges, gp, seed, m_g=2)
        kinds.update((u.graph, u.kind) for u in updates)
        _, can, cross = mirror_detect(updates, gp, matches, labels, old)
        expected_cross = []
        for ud in (u for u in updates if u.graph == "D"):
            new_labels, new_edges = apply_updates_data(labels, edges, [ud])
            new = ref_apsp(sorted(new_labels), new_edges)
            aff = mirror_affected(old, ud)
            if ud.is_insertion:
                assert aff == ref_affected_nodes(old, new), (seed, ud)
            else:
                assert aff == _through(old, ud), (seed, ud)
                assert aff >= ref_affected_nodes(old, new), (seed, ud)
            for up in (u for u in updates if u.graph == "P"):
                if not (ud.is_insertion and can[up.uid] and aff >= can[up.uid]):
                    continue
                # Can_N on the rebuilt SLen, over the original graph's nodes
                residual = mirror_candidates(up, gp, matches, labels, new)
                if up.kind == "edge_ins":
                    assert mirror_residual(up, ud, matches, old) == residual, (seed, up, ud)
                    residuals_checked += 1
                if not residual:
                    expected_cross.append((up.uid, ud.uid))
        assert sorted(cross) == sorted(expected_cross), seed
    assert len(kinds) == 8
    assert residuals_checked > 0


@pytest.mark.parametrize("kind", ["social", "sparse"])
def test_mirror_sources_rebuild_slen(kind):
    """Keep every row but those of ``mirror_sources`` and of a deleted node,
    re-run BFS from the sources on the updated graph: that is SLen_new."""
    kinds = Counter()
    for seed in MIRROR_SEEDS:
        labels, edges = _graph(kind, seed, 18)
        old = ref_apsp(sorted(labels), edges)
        for u in generate_data_updates(labels, edges, m_g=2, n_g=2, seed=seed):
            new_labels, new_edges = apply_updates_data(labels, edges, [u])
            new = ref_apsp(sorted(new_labels), new_edges)
            sources = mirror_sources(old, u)
            changed = {s for s, t in set(old) | set(new) if old.get((s, t)) != new.get((s, t))}
            if u.kind == "edge_ins":
                assert sources == changed, (seed, u)
            else:
                assert sources >= changed, (seed, u)
            gone = {u.node} if u.kind == "node_del" else set()
            kept = {k: d for k, d in old.items() if k[0] not in sources and not gone & set(k)}
            fresh = ref_apsp(sorted(sources - gone), new_edges)
            assert kept | fresh == new, (seed, u)
            kinds[u.kind] += 1
    assert len(kinds) == 4


@pytest.mark.parametrize("kind", ["social", "sparse"])
def test_batch_sources_step_to_slen_new(kind):
    """The batch rule: the union of ``mirror_sources`` over a mixed batch,
    each read on the SLen before it, covers every source whose row the
    batch changes; keep the other rows, re-run BFS from the sources on the
    updated graph, and that is SLen_new. Odd seeds also re-insert a deleted
    edge and delete an inserted one, so some updates cancel."""
    kinds = Counter()
    for seed in MIRROR_SEEDS:
        labels, edges = _graph(kind, seed, 18)
        old = ref_apsp(sorted(labels), edges)
        gp = tiny_pattern(seed, sorted(set(labels.values())), n_nodes=3)
        batch = [u for u in _batch(labels, edges, gp, seed, m_g=2) if u.graph == "D"]
        if seed % 2:
            dels = [u for u in batch if u.kind == "edge_del"][:1]
            ins = [u for u in batch if u.kind == "edge_ins"][:1]
            batch += [Update(graph="D", kind="edge_ins", src=u.src, dst=u.dst) for u in dels]
            batch += [Update(graph="D", kind="edge_del", src=u.src, dst=u.dst) for u in ins]
        new_labels, new_edges = apply_updates_data(labels, edges, batch)
        new = ref_apsp(sorted(new_labels), new_edges)
        stale = set().union(*(mirror_sources(old, u) for u in batch))
        changed = {s for s, t in set(old) | set(new) if old.get((s, t)) != new.get((s, t))}
        assert stale >= changed, seed
        kept = {k: d for k, d in old.items() if k[0] not in stale}
        fresh = ref_apsp(sorted(stale & set(new_labels)), new_edges)
        assert kept | fresh == new, seed
        kinds.update(u.kind for u in batch)
    assert len(kinds) == 4


def _fig1_case():
    ex = fig1_example()
    ups = ex["updates"]
    updates = [ups["U_P1"], ups["U_P2"], ups["U_D1"], ups["U_D2"]]
    return ex["labels"], ex["edges"], ex["pattern"], updates


def _random_case(seed: int):
    labels, edges = _graph("social" if seed % 2 == 0 else "sparse", seed // 2, 24)
    gp = tiny_pattern(seed, sorted(set(labels.values())), n_nodes=4)
    return labels, edges, gp, _batch(labels, edges, gp, seed, m_g=1)


def _bridge_case(bound: int):
    """A pattern edge A→B of ``bound`` whose only witnesses are new paths:
    0→2→1 (edge 0→2 inserted) and 0→3→1 (node 3 inserted), both of length
    2, so both cancel the pattern update at bound 2 and neither at bound 1."""
    labels = {0: "A", 1: "B", 2: "C"}
    gp = PatternGraph.of({0: "A", 1: "B"}, [])
    updates = [
        Update(graph="P", kind="edge_ins", src=0, dst=1, bound=bound),
        Update(graph="D", kind="edge_ins", src=0, dst=2),
        Update(graph="D", kind="node_ins", node=3, label="C", attach_edges=((0, 3), (3, 1))),
    ]
    return labels, [(2, 1)], gp, updates


CASES = {
    **{f"seed{s}": (lambda s=s: _random_case(s)) for s in SPARK_SEEDS},
    "fig1": _fig1_case,
    "bridge-bound1": lambda: _bridge_case(1),
    "bridge-bound2": lambda: _bridge_case(2),
}


def test_spark_cases_cover_every_kind_and_a_cross_pair():
    kinds = set()
    cross_kinds = set()
    for make in CASES.values():
        labels, edges, gp, updates = make()
        slen = ref_apsp(sorted(labels), edges)
        kinds |= {(u.graph, u.kind) for u in updates}
        kind_of = {u.uid: u.kind for u in updates}
        cross = mirror_detect(updates, gp, ref_match(gp, labels, slen), labels, slen)[2]
        cross_kinds |= {kind_of[ud] for _, ud in cross}
    assert len(kinds) == 8
    assert cross_kinds == {"edge_ins", "node_ins"}


@pytest.mark.parametrize("case", list(CASES))
def test_spark_batch_equals_mirror(spark, case):
    labels, edges, gp, updates = CASES[case]()
    dg = DataGraph.from_edge_list(spark, labels, edges)
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    iq = match_fixpoint(spark, gp, slen, dg.nodes).localCheckpoint(eager=True)
    updates_d = [u for u in updates if u.graph == "D"]
    updates_p = [u for u in updates if u.graph == "P"]

    slices = read_slices(updates, slen, gp, iq, dg.nodes)
    aff = affected_sets(updates_d, slices)
    can = candidate_sets(updates_p, gp, slices)
    cross = detect_cross_eliminations(updates_p, updates_d, can, aff, slices)

    ref_slen = ref_apsp(sorted(labels), edges)
    matches = matches_to_dict(iq)
    want_aff, want_can, want_cross = mirror_detect(updates, gp, matches, labels, ref_slen)
    assert aff == want_aff
    assert source_sets(updates_d, slices) == {u.uid: mirror_sources(ref_slen, u) for u in updates_d}
    assert can == want_can
    assert cross == want_cross
    # every DER-III residual, whether or not Aff ⊇ Can lets it count
    for up in (u for u in updates_p if u.kind == "edge_ins"):
        for ud in (u for u in updates_d if u.is_insertion):
            want = mirror_residual(up, ud, matches, ref_slen)
            assert residual_candidates(up, ud, slices) == want, (up, ud)


def _one_scc(n, *updates):
    """``n`` nodes in one SCC. On 120 nodes, an inserted edge into node 20
    makes 83 or 90 of them stale, so a step writes 9 960 or 10 800 rows; a
    deleted node makes every node stale, so SLen is built anew on ``n - 1``."""
    labels, edges = tiny_graph(0, n=n, e=3 * n, n_labels=3)
    assert len(ref_apsp(sorted(labels), edges)) == n * n
    return labels, edges, None, list(updates)


def _source_only_node_deleted():
    """A deleted node with no in-edge: it is its column's only source, so the
    step's one stale source is gone and its BFS has no source at all."""
    labels, edges = tiny_graph(0, n=24, e=72, n_labels=3)
    return {**labels, 24: "A"}, edges + [(24, 0), (24, 7)], None, [Update(graph="D", kind="node_del", node=24)]


#: The step alone, with the placement its size must take: CASES' builds and
#: steps are all small, so these add a step above ``DRIVER_BFS_ROWS``, one
#: just below it, one with no live stale source, and a build on either side
#: of the bound: 100 × 100 rows, at it, and 101 × 101.
STEP_CASES = {
    **{c: (make, None) for c, make in CASES.items()},
    "step-above-bound": (
        lambda: _one_scc(
            120,
            Update(graph="D", kind="edge_ins", src=28, dst=20),
            Update(graph="D", kind="edge_del", src=9, dst=34),
        ),
        "spark",
    ),
    "step-below-bound": (
        lambda: _one_scc(120, Update(graph="D", kind="edge_ins", src=72, dst=20)),
        "driver",
    ),
    "step-deleted-source-only": (_source_only_node_deleted, "driver"),
    "build-at-bound": (
        lambda: _one_scc(101, Update(graph="D", kind="node_del", node=20)), "driver"
    ),
    "build-above-bound": (
        lambda: _one_scc(102, Update(graph="D", kind="node_del", node=20)), "spark"
    ),
}


@pytest.mark.parametrize("case", list(STEP_CASES))
def test_spark_batch_slen_step_equals_ref_apsp(spark, monkeypatch, case):
    """UA-GPNM's batched SLen step, under both builders, is SLen of the updated
    graph. A build (every node stale) or a step runs ``grouped_bfs`` if it
    writes more than ``DRIVER_BFS_ROWS`` rows; a smaller one runs the kernel
    on the driver, whose rows go back through ``local_frame``."""
    make, placement = STEP_CASES[case]
    labels, edges, _, updates = make()
    updates_d = [u for u in updates if u.graph == "D"]
    dg = DataGraph.from_edge_list(spark, labels, edges)
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    slices = read_slices(updates_d, slen)
    new_labels, new_edges = apply_updates_data(labels, edges, updates_d)
    want = ref_apsp(sorted(new_labels), new_edges)
    grouped, driver_rows = [], []
    grouped_bfs, local_frame = bfs.grouped_bfs, bfs.local_frame

    def spy_grouped(*args, **kwargs):
        grouped.append(args)
        return grouped_bfs(*args, **kwargs)

    def spy_local(spark, rows, schema):
        rows = list(rows)
        driver_rows.append(len(rows))
        return local_frame(spark, rows, schema)

    monkeypatch.setattr(bfs, "grouped_bfs", spy_grouped)
    monkeypatch.setattr(bfs, "local_frame", spy_local)
    for build in (apsp, partitioned_apsp):
        grouped.clear()
        driver_rows.clear()
        got, _, stale = _slen_step(spark, slen, dg, updates_d, slices, build)
        assert stale
        rebuild = stale >= slices.nodes
        sources = set(new_labels) if rebuild else stale & set(new_labels)
        on_spark = len(sources) * len(new_labels) > bfs.DRIVER_BFS_ROWS
        if placement:  # a build or a step, on the side its size says
            assert rebuild == case.startswith("build-")
            assert placement == ("spark" if on_spark else "driver")
        assert bool(grouped) == on_spark != bool(driver_rows), build.__name__
        rows = got.collect()
        assert len(rows) == len(want), build.__name__  # no source's rows twice
        assert {(r.src, r.dst): r.dist for r in rows} == want, build.__name__
        if case == "step-deleted-source-only":  # no live source: the empty frame
            assert not stale & set(new_labels) and driver_rows == [0]
        if case == "build-at-bound":  # every row of SLen_new, on the driver
            assert driver_rows == [len(want)]
