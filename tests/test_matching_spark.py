"""Spark BGS matching fixpoint vs the reference simulation + DuckDB oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.gpnm import gpnm_from_scratch
from repro.core.matching import MATCH_SCHEMA, label_candidates, match_fixpoint, matches_to_dict
from repro.frames import local_frame
from repro.graphs.datagraph import DataGraph
from repro.graphs.pattern import STAR, PatternGraph
from repro.oracle import assert_equivalent
from repro.reference import ref_apsp, ref_gpnm, ref_match
from repro.spark_graph.bfs import apsp
from tests.util import spark_jobs, tiny_graph, tiny_pattern

SEEDS = [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def inst(spark):
    labels, edges = tiny_graph(0, n=40, e=120, n_labels=4)
    dg = DataGraph.from_edge_list(spark, labels, edges).cache()
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    return labels, edges, dg, slen


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_reference_random_patterns(spark, inst, seed):
    labels, edges, dg, slen = inst
    gp = tiny_pattern(seed, sorted(set(labels.values())), n_nodes=4)
    got = matches_to_dict(match_fixpoint(spark, gp, slen, dg.nodes))
    expected = ref_gpnm(gp, labels, edges)
    full = {p: got.get(p, set()) for p in gp.nodes}
    assert full == expected


def test_label_candidates_matches_duckdb(spark, inst):
    labels, edges, dg, slen = inst
    gp = PatternGraph.of({0: "PM", 1: "SE"}, [])
    spark_df = label_candidates(spark, gp, dg.nodes)
    assert_equivalent(
        spark_df,
        "SELECT p.pid, n.id AS vid FROM pnodes p JOIN nodes n ON p.plabel = n.label",
        pnodes=pd.DataFrame({"pid": [0, 1], "plabel": ["PM", "SE"]}),
        nodes=pd.DataFrame(
            {"id": list(labels.keys()), "label": list(labels.values())}
        ),
    )


def test_star_bound(spark, inst):
    labels, edges, dg, slen = inst
    vocab = sorted(set(labels.values()))
    gp = PatternGraph.of({0: vocab[0], 1: vocab[1]}, [(0, 1, STAR)])
    got = matches_to_dict(match_fixpoint(spark, gp, slen, dg.nodes))
    expected = ref_gpnm(gp, labels, edges)
    assert {p: got.get(p, set()) for p in gp.nodes} == expected


def test_unmatchable_label_empties_everything(spark, inst):
    labels, edges, dg, slen = inst
    gp = PatternGraph.of({0: "PM", 1: "NO_SUCH_LABEL"}, [])
    assert match_fixpoint(spark, gp, slen, dg.nodes).isEmpty()


def test_pattern_with_no_edges_is_label_match(spark, inst):
    labels, edges, dg, slen = inst
    gp = PatternGraph.of({0: "PM"}, [])
    got = matches_to_dict(match_fixpoint(spark, gp, slen, dg.nodes))
    assert got[0] == {v for v, l in labels.items() if l == "PM"}


def test_universe_superset_gives_exact_result(spark, inst):
    """Removal fixpoint from any superset converges to the maximal
    simulation — the property UA-GPNM's regional passes rely on."""
    labels, edges, dg, slen = inst
    gp = tiny_pattern(1, sorted(set(labels.values())))
    exact = matches_to_dict(match_fixpoint(spark, gp, slen, dg.nodes))
    universe = label_candidates(spark, gp, dg.nodes)  # full superset
    via_universe = matches_to_dict(
        match_fixpoint(spark, gp, slen, dg.nodes, universe)
    )
    assert via_universe == exact


def test_universe_restricts_result(spark, inst):
    """A universe missing required pairs yields the maximal simulation
    *within* it (possibly empty), never pairs outside it."""
    labels, edges, dg, slen = inst
    gp = PatternGraph.of({0: "PM"}, [])
    pm = sorted(v for v, l in labels.items() if l == "PM")
    universe = spark.createDataFrame([(0, pm[0])], schema="pid long, vid long")
    got = matches_to_dict(match_fixpoint(spark, gp, slen, dg.nodes, universe))
    assert got == {0: {pm[0]}}


@pytest.mark.parametrize("with_universe", [False, True], ids=["full", "local-universe"])
def test_match_fixpoint_makes_two_spark_jobs(spark, inst, with_universe):
    """One pass is two Arrow reads: the candidate pairs, and the SLen rows."""
    labels, edges, dg, slen = inst
    gp = tiny_pattern(1, sorted(set(labels.values())))
    assert gp.edges
    universe = None
    if with_universe:
        pairs = [(p, v) for p, lbl in gp.nodes.items() for v, l in labels.items() if l == lbl]
        universe = local_frame(spark, pairs, MATCH_SCHEMA)
    _, jobs = spark_jobs(spark, lambda: match_fixpoint(spark, gp, slen, dg.nodes, universe))
    assert jobs == 2


def test_universe_with_stale_pairs_is_clamped(spark, inst):
    """Stale pairs (unknown pattern node / deleted data node) are dropped."""
    labels, edges, dg, slen = inst
    gp = PatternGraph.of({0: "PM"}, [])
    pm = sorted(v for v, l in labels.items() if l == "PM")
    universe = spark.createDataFrame(
        [(0, pm[0]), (99, pm[0]), (0, 10**6)], schema="pid long, vid long"
    )
    got = matches_to_dict(match_fixpoint(spark, gp, slen, dg.nodes, universe))
    assert got == {0: {pm[0]}}


def test_gpnm_from_scratch_builds_slen(spark):
    labels, edges = tiny_graph(5, n=25, e=70)
    dg = DataGraph.from_edge_list(spark, labels, edges)
    gp = tiny_pattern(2, sorted(set(labels.values())))
    got = matches_to_dict(gpnm_from_scratch(spark, dg, gp))
    expected = ref_gpnm(gp, labels, edges)
    assert {p: got.get(p, set()) for p in gp.nodes} == expected

    # A 70-node directed path: the only A (node 0) reaches the only B
    # (node 69) in 69 hops, so a STAR edge A → B matches both.
    labels = {i: "C" for i in range(70)} | {0: "A", 69: "B"}
    edges = [(i, i + 1) for i in range(69)]
    dg = DataGraph.from_edge_list(spark, labels, edges)
    gp = PatternGraph.of({0: "A", 1: "B"}, [(0, 1, STAR)])
    got = matches_to_dict(gpnm_from_scratch(spark, dg, gp))
    assert got == ref_gpnm(gp, labels, edges) == {0: {0}, 1: {69}}


def test_multiple_pattern_nodes_same_label(spark, inst):
    labels, edges, dg, slen = inst
    vocab = sorted(set(labels.values()))
    gp = PatternGraph.of(
        {0: vocab[0], 1: vocab[0], 2: vocab[1]}, [(0, 2, 2), (1, 2, 4)]
    )
    got = matches_to_dict(match_fixpoint(spark, gp, slen, dg.nodes))
    expected = ref_match(gp, labels, ref_apsp(sorted(labels), edges))
    assert {p: got.get(p, set()) for p in gp.nodes} == expected


def test_cyclic_pattern(spark, inst):
    labels, edges, dg, slen = inst
    vocab = sorted(set(labels.values()))
    gp = PatternGraph.of(
        {0: vocab[0], 1: vocab[1]}, [(0, 1, 3), (1, 0, 3)]
    )
    got = matches_to_dict(match_fixpoint(spark, gp, slen, dg.nodes))
    expected = ref_match(gp, labels, ref_apsp(sorted(labels), edges))
    assert {p: got.get(p, set()) for p in gp.nodes} == expected
