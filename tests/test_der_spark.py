"""DER-I/II/III detection on randomized instances vs reference oracles."""
import pytest

from repro.core.der import (
    affected_nodes_data_update,
    candidate_nodes_pattern_update,
    slen_after_insertion,
)
from repro.core.matching import match_fixpoint, matches_to_dict
from repro.graphs.datagraph import DataGraph
from repro.graphs.pattern import PatternGraph
from repro.graphs.updates import Update, apply_updates_data
from repro.reference import ref_affected_nodes, ref_apsp, ref_match
from repro.spark_graph.bfs import apsp
from tests.util import tiny_graph

SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def inst(spark):
    labels, edges = tiny_graph(2, n=36, e=110, n_labels=4)
    dg = DataGraph.from_edge_list(spark, labels, edges).cache()
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    vocab = sorted(set(labels.values()))
    gp = PatternGraph.of(
        {0: vocab[0], 1: vocab[1], 2: vocab[2]}, [(0, 1, 3), (1, 2, 3)]
    )
    iq = match_fixpoint(spark, gp, slen, dg.nodes).localCheckpoint(eager=True)
    assert not iq.isEmpty()
    return labels, edges, dg, slen, gp, iq


def _can(spark, inst, u):
    labels, edges, dg, slen, gp, iq = inst
    return {
        r.id
        for r in candidate_nodes_pattern_update(spark, u, gp, slen, iq, dg.nodes).collect()
    }


class TestCandidateSets:
    def test_edge_ins_existential_semantics(self, spark, inst):
        """A match survives iff SOME witness is within the bound (Ex. 7)."""
        labels, edges, dg, slen, gp, iq = inst
        u = Update(graph="P", kind="edge_ins", src=0, dst=2, bound=2)
        got = _can(spark, inst, u)
        m = matches_to_dict(iq)
        sl = ref_apsp(sorted(labels), edges)
        exp = set()
        for v in m[0]:
            if not any(sl.get((v, w), 10**9) <= 2 for w in m[2]):
                exp.add(v)
        for w in m[2]:
            if not any(sl.get((v, w), 10**9) <= 2 for v in m[0]):
                exp.add(w)
        assert got == exp

    def test_edge_del_candidates_are_nonmatching_label_nodes(self, spark, inst):
        labels, edges, dg, slen, gp, iq = inst
        u = Update(graph="P", kind="edge_del", src=0, dst=1)
        got = _can(spark, inst, u)
        m = matches_to_dict(iq)
        exp = {v for v, l in labels.items() if l == gp.nodes[0]} - m[0]
        exp |= {v for v, l in labels.items() if l == gp.nodes[1]} - m[1]
        assert got == exp

    def test_node_ins_candidates_are_label_nodes(self, spark, inst):
        labels, edges, dg, slen, gp, iq = inst
        lbl = gp.nodes[1]
        u = Update(graph="P", kind="node_ins", node=9, label=lbl)
        got = _can(spark, inst, u)
        assert got == {v for v, l in labels.items() if l == lbl}

    def test_node_del_candidates_cover_matches_and_relaxed(self, spark, inst):
        labels, edges, dg, slen, gp, iq = inst
        u = Update(graph="P", kind="node_del", node=2)
        got = _can(spark, inst, u)
        m = matches_to_dict(iq)
        # removal side: matches of pid 2; addition side: non-matching
        # label-nodes of its in-neighbor pid 1
        exp = set(m[2]) | (
            {v for v, l in labels.items() if l == gp.nodes[1]} - m[1]
        )
        assert got == exp


class TestAffectedSets:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_edge_ins_exact(self, spark, inst, seed):
        import numpy as np

        labels, edges, dg, slen, gp, iq = inst
        rng = np.random.default_rng(seed)
        ids = sorted(labels)
        eset = set(edges)
        while True:
            a, b = (int(x) for x in rng.choice(ids, 2, replace=False))
            if (a, b) not in eset:
                break
        u = Update(graph="D", kind="edge_ins", src=a, dst=b)
        got = {r.id for r in affected_nodes_data_update(spark, u, slen).collect()}
        old = ref_apsp(ids, edges)
        new = ref_apsp(ids, edges + [(a, b)])
        assert got == ref_affected_nodes(old, new)

    @pytest.mark.parametrize("idx", [0, 7])
    def test_edge_del_conservative_superset(self, spark, inst, idx):
        labels, edges, dg, slen, gp, iq = inst
        a, b = edges[idx]
        u = Update(graph="D", kind="edge_del", src=a, dst=b)
        got = {r.id for r in affected_nodes_data_update(spark, u, slen).collect()}
        old = ref_apsp(sorted(labels), edges)
        new = ref_apsp(sorted(labels), [e for e in edges if e != (a, b)])
        assert ref_affected_nodes(old, new) <= got
        assert {a, b} <= got or ref_affected_nodes(old, new) == set()

    def test_node_ins_includes_new_node_and_changes(self, spark, inst):
        labels, edges, dg, slen, gp, iq = inst
        nid = max(labels) + 1
        anchor = sorted(labels)[0]
        u = Update(
            graph="D", kind="node_ins", node=nid, label="A",
            attach_edges=((anchor, nid), (nid, sorted(labels)[10])),
        )
        got = {r.id for r in affected_nodes_data_update(spark, u, slen).collect()}
        new_labels, new_edges = apply_updates_data(labels, edges, [u])
        exp = ref_affected_nodes(
            ref_apsp(sorted(labels), edges), ref_apsp(sorted(new_labels), new_edges)
        )
        assert exp <= got
        assert nid in got

    def test_node_del_conservative_superset(self, spark, inst):
        labels, edges, dg, slen, gp, iq = inst
        x = sorted(labels)[5]
        u = Update(graph="D", kind="node_del", node=x)
        got = {r.id for r in affected_nodes_data_update(spark, u, slen).collect()}
        new_labels, new_edges = apply_updates_data(labels, edges, [u])
        exp = ref_affected_nodes(
            ref_apsp(sorted(labels), edges), ref_apsp(sorted(new_labels), new_edges)
        )
        assert exp <= got


class TestSlenAfterInsertion:
    def test_edge_ins(self, spark, inst):
        labels, edges, dg, slen, gp, iq = inst
        u = Update(graph="D", kind="edge_ins", src=sorted(labels)[0], dst=sorted(labels)[20])
        if (u.src, u.dst) in set(edges):
            pytest.skip("picked an existing edge")
        got = {(r.src, r.dst): r.dist for r in slen_after_insertion(spark, slen, u).collect()}
        assert got == ref_apsp(sorted(labels), edges + [(u.src, u.dst)])

    def test_deletion_rejected(self, spark, inst):
        labels, edges, dg, slen, gp, iq = inst
        with pytest.raises(ValueError):
            slen_after_insertion(
                spark, slen, Update(graph="D", kind="edge_del", src=0, dst=1)
            )

