"""Why every method's consolidate pass keeps the full label-candidate universe.

Inserting the data edge 1→2 gives node 1 a C within bound 1, so (B, 1)
becomes a match; node 0 reaches 1 in one hop, so (A, 0) follows. But
node 0's shortest paths do not change (``Aff_N = {1, 2}``) and (A, 0) is
not in IQuery: a universe of "IQuery ∪ label pairs of the update
regions" leaves it out, and a removal fixpoint can never add it back
(DESIGN.md §5).
"""
import pytest

from repro.core.der import affected_nodes_data_update
from repro.core.gpnm import gpnm_from_scratch
from repro.core.matching import label_candidates, match_fixpoint, matches_to_dict
from repro.core.methods import METHODS, apply_data_updates_spark
from repro.graphs.datagraph import DataGraph
from repro.graphs.pattern import PatternGraph
from repro.graphs.updates import Update, apply_updates_data
from repro.reference import ref_gpnm
from repro.spark_graph.bfs import apsp

A, B, C = 0, 1, 2
LABELS = {0: "A", 1: "B", 2: "C", 3: "A", 4: "B", 5: "C"}
EDGES = [(0, 1), (0, 2), (3, 4), (4, 5)]
PATTERN = PatternGraph.of({A: "A", B: "B", C: "C"}, [(A, B, 1), (B, C, 1)])
UPDATES = [Update(graph="D", kind="edge_ins", src=1, dst=2)]
IQUERY = {A: {3}, B: {4}, C: {2, 5}}
SQUERY = {A: {0, 3}, B: {1, 4}, C: {2, 5}}


@pytest.fixture(scope="module")
def instance(spark):
    dg = DataGraph.from_edge_list(spark, LABELS, EDGES).cache()
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    iq = match_fixpoint(spark, PATTERN, slen, dg.nodes).localCheckpoint(eager=True)
    return dg, slen, iq


def test_reference_answers():
    assert ref_gpnm(PATTERN, LABELS, EDGES) == IQUERY
    assert ref_gpnm(PATTERN, *apply_updates_data(LABELS, EDGES, UPDATES)) == SQUERY


def test_gained_match_lies_outside_iquery_and_update_region(spark, instance):
    dg, slen, iq = instance
    got_iq = matches_to_dict(iq)
    assert got_iq == IQUERY
    assert 0 not in got_iq[A]
    aff = {int(r["id"]) for r in affected_nodes_data_update(spark, UPDATES[0], slen).collect()}
    assert aff == {1, 2}
    region_pairs = {
        (int(r["pid"]), int(r["vid"]))
        for r in label_candidates(spark, PATTERN, dg.nodes.filter(dg.nodes.id.isin(*aff))).collect()
    }
    assert (A, 0) not in region_pairs


def test_restricted_universe_misses_the_gained_match(spark, instance):
    dg, _, iq = instance
    dg_new = apply_data_updates_spark(spark, dg, UPDATES)
    slen_new = apsp(dg_new.nodes, dg_new.edges)
    region = dg_new.nodes.filter(dg_new.nodes.id.isin(1, 2))
    universe = iq.unionByName(label_candidates(spark, PATTERN, region))
    got = matches_to_dict(match_fixpoint(spark, PATTERN, slen_new, dg_new.nodes, universe))
    assert got != SQUERY
    assert 0 not in got.get(A, set())


@pytest.mark.parametrize("method", list(METHODS))
def test_every_method_finds_the_gained_match(spark, instance, method):
    dg, slen, iq = instance
    res, _ = METHODS[method](spark, dg, PATTERN, slen, iq, UPDATES)
    assert matches_to_dict(res) == SQUERY


def test_from_scratch_finds_the_gained_match(spark, instance):
    dg, _, _ = instance
    dg_new = apply_data_updates_spark(spark, dg, UPDATES)
    assert matches_to_dict(gpnm_from_scratch(spark, dg_new, PATTERN)) == SQUERY
