"""UA-GPNM's one answer pass against the pure-Python reference.

20 Spark seeds, label-clustered and sparse graphs in turn, each with a
batch that mixes all eight update kinds (``test_der_differential``'s
cases), alternately through UA-GPNM and UA-GPNM-NoPar. One more batch
starts from an empty IQuery: the pattern has a label no data node has
until the batch inserts one.
"""
import pytest

from repro.core.matching import match_fixpoint, matches_to_dict
from repro.core.methods import METHODS
from repro.graphs.datagraph import DataGraph
from repro.graphs.pattern import PatternGraph
from repro.graphs.updates import Update, apply_updates_data, apply_updates_pattern
from repro.reference import ref_gpnm
from repro.spark_graph.bfs import apsp
from tests.test_der_differential import _random_case

SPARK_SEEDS = range(20)


def _empty_iquery_case():
    labels = {0: "A", 1: "B", 2: "A", 3: "B"}
    edges = [(0, 1), (1, 2), (2, 3)]
    gp = PatternGraph.of({0: "A", 1: "B", 2: "C"}, [(0, 1, 1), (1, 2, 2)])
    updates = [
        Update(graph="D", kind="node_ins", node=4, label="C", attach_edges=((1, 4), (4, 2))),
        Update(graph="D", kind="edge_del", src=2, dst=3),
        Update(graph="P", kind="edge_ins", src=0, dst=2, bound=2),
    ]
    return labels, edges, gp, updates


CASES = {
    **{f"seed{s}": (lambda s=s: _random_case(s)) for s in SPARK_SEEDS},
    "empty-iquery": _empty_iquery_case,
}


# UA-GPNM and NoPar in turn, each on both graph kinds
PARAMS = [(case, ("UA-GPNM", "UA-GPNM-NoPar")[i // 2 % 2]) for i, case in enumerate(CASES)]


def test_cases_cover_every_kind_and_an_empty_iquery():
    kinds = {(u.graph, u.kind) for make in CASES.values() for u in make()[3]}
    assert len(kinds) == 8
    labels, edges, gp, updates = _empty_iquery_case()
    assert not any(ref_gpnm(gp, labels, edges).values())
    gp_new = apply_updates_pattern(gp, updates)
    assert all(ref_gpnm(gp_new, *apply_updates_data(labels, edges, updates)).values())


@pytest.mark.parametrize("case, method", PARAMS)
def test_ua_gpnm_equals_reference(spark, case, method):
    labels, edges, gp, updates = CASES[case]()
    dg = DataGraph.from_edge_list(spark, labels, edges)
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    iq = match_fixpoint(spark, gp, slen, dg.nodes).localCheckpoint(eager=True)
    res, stats = METHODS[method](spark, dg, gp, slen, iq, updates)
    gp_new = apply_updates_pattern(gp, updates)
    expected = ref_gpnm(gp_new, *apply_updates_data(labels, edges, updates))
    got = matches_to_dict(res)
    assert {p: got.get(p, set()) for p in gp_new.nodes} == expected
    assert stats.n_roots + stats.n_eliminated == len(updates)
    assert stats.n_refine_passes == 0
