"""Incremental SLen maintenance vs from-scratch reference recomputation."""
import pytest

from repro.core.der import affected_sets, read_slices, source_sets
from repro.graphs.datagraph import DataGraph
from repro.graphs.updates import Update, apply_updates_data, generate_data_updates
from repro.core.methods import _slen_step
from repro.reference import ref_apsp
from repro.spark_graph.bfs import apsp
from repro.spark_graph.slen import relax_edge_insert
from tests.util import tiny_graph

SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def inst(spark):
    labels, edges = tiny_graph(0, n=35, e=100)
    dg = DataGraph.from_edge_list(spark, labels, edges).cache()
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    return labels, edges, dg, slen


def _step(spark, slen, dg, u):
    """(SLen, graph) after one data update: the per-update step INC-GPNM takes."""
    return _slen_step(spark, slen, dg, [u], read_slices([u], slen), apsp)[:2]


def _slen_dict(df):
    return {(r.src, r.dst): r.dist for r in df.collect()}


def _nonedge(labels, edges, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    ids = sorted(labels)
    eset = set(edges)
    while True:
        a, b = rng.choice(ids, 2, replace=False)
        if (int(a), int(b)) not in eset:
            return int(a), int(b)


class TestEdgeInsert:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_relax_exact(self, spark, inst, seed):
        labels, edges, dg, slen = inst
        a, b = _nonedge(labels, edges, seed)
        got = _slen_dict(relax_edge_insert(slen, a, b))
        assert got == ref_apsp(sorted(labels), edges + [(a, b)])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_changed_pairs_are_exact_diff(self, spark, inst, seed):
        """DER-II of an insertion is the endpoints of the exactly improved pairs."""
        labels, edges, dg, slen = inst
        a, b = _nonedge(labels, edges, seed + 50)
        old = ref_apsp(sorted(labels), edges)
        new = ref_apsp(sorted(labels), edges + [(a, b)])
        changed = {k for k in new if old.get(k) is None or new[k] < old[k]}
        u = Update(graph="D", kind="edge_ins", src=a, dst=b)
        assert affected_sets([u], read_slices([u], slen))[u.uid] == {x for k in changed for x in k}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_insert_step_exact(self, spark, inst, seed):
        labels, edges, dg, slen = inst
        a, b = _nonedge(labels, edges, seed)
        u = Update(graph="D", kind="edge_ins", src=a, dst=b)
        out, _ = _step(spark, slen, dg, u)
        assert _slen_dict(out) == ref_apsp(sorted(labels), edges + [(a, b)])

    def test_insert_existing_shortcut_changes_nothing(self, spark, inst):
        labels, edges, dg, slen = inst
        # inserting an edge parallel to an existing one: no pair changes
        a, b = edges[0]
        u = Update(graph="D", kind="edge_ins", src=a, dst=b)
        assert affected_sets([u], read_slices([u], slen))[u.uid] == set()


class TestEdgeDelete:
    @pytest.mark.parametrize("idx", [0, 5, 11])
    def test_affected_sources_complete(self, spark, inst, idx):
        """Every source whose row truly changes is in the affected set."""
        labels, edges, dg, slen = inst
        a, b = edges[idx]
        new_edges = [e for e in edges if e != (a, b)]
        old = ref_apsp(sorted(labels), edges)
        new = ref_apsp(sorted(labels), new_edges)
        truly_changed = {
            k[0] for k in set(old) | set(new) if old.get(k) != new.get(k)
        }
        u = Update(graph="D", kind="edge_del", src=a, dst=b)
        got = source_sets([u], read_slices([u], slen))[u.uid]
        assert truly_changed <= got

    @pytest.mark.parametrize("idx", [0, 3, 5, 11])
    def test_delete_step_exact(self, spark, inst, idx):
        labels, edges, dg, slen = inst
        a, b = edges[idx]
        u = Update(graph="D", kind="edge_del", src=a, dst=b)
        out, dg_new = _step(spark, slen, dg, u)
        new_edges = [e for e in edges if e != (a, b)]
        assert _slen_dict(out) == ref_apsp(sorted(labels), new_edges)


class TestNodeUpdates:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_node_insert_step_exact(self, spark, inst, seed):
        labels, edges, dg, slen = inst
        nid = max(labels) + 1
        anchor = sorted(labels)[seed]
        u = Update(
            graph="D",
            kind="node_ins",
            node=nid,
            label="A",
            attach_edges=((anchor, nid), (nid, sorted(labels)[seed + 3])),
        )
        out, _ = _step(spark, slen, dg, u)
        new_labels, new_edges = apply_updates_data(labels, edges, [u])
        assert _slen_dict(out) == ref_apsp(sorted(new_labels), new_edges)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_node_delete_step_exact(self, spark, inst, seed):
        labels, edges, dg, slen = inst
        x = sorted(labels)[seed * 7 + 2]
        u = Update(graph="D", kind="node_del", node=x)
        out, _ = _step(spark, slen, dg, u)
        new_labels, new_edges = apply_updates_data(labels, edges, [u])
        assert _slen_dict(out) == ref_apsp(sorted(new_labels), new_edges)


def test_chained_steps_over_all_four_kinds(spark, inst):
    """Two updates of each kind, one ``_slen_step`` after another."""
    labels, edges, dg, slen = inst
    updates = generate_data_updates(labels, edges, m_g=2, n_g=2, seed=4)
    assert {u.kind for u in updates} == {"edge_ins", "edge_del", "node_ins", "node_del"}
    for u in updates:
        slen, dg = _step(spark, slen, dg, u)
    new_labels, new_edges = apply_updates_data(labels, edges, updates)
    assert _slen_dict(slen) == ref_apsp(sorted(new_labels), new_edges)


@pytest.mark.parametrize(
    "kind, jobs", [("edge_ins", 5), ("edge_del", 5), ("node_ins", 5), ("node_del", 5)]
)
def test_slen_step_spark_jobs(spark, inst, kind, jobs):
    """Jobs of one step with its slice read: the read and the graph update's
    checkpoints, then the id read and the edge read of a BFS small enough for
    the driver, a step (the edge updates) or, where every node is stale (the
    node updates on this one-SCC graph), a build. Pinned, so an added Spark
    action shows."""
    labels, edges, dg, slen = inst
    ids = sorted(labels)
    nid = max(ids) + 1
    u = {
        "edge_ins": Update(graph="D", kind="edge_ins", src=ids[0], dst=ids[20]),
        "edge_del": Update(graph="D", kind="edge_del", src=edges[0][0], dst=edges[0][1]),
        "node_ins": Update(
            graph="D", kind="node_ins", node=nid, label="A",
            attach_edges=((ids[0], nid), (nid, ids[3])),
        ),
        "node_del": Update(graph="D", kind="node_del", node=ids[2]),
    }[kind]
    sc = spark.sparkContext
    group = f"slen-step-{kind}"  # a group keeps its finished jobs
    sc.setJobGroup(group, "one _slen_step")
    try:
        _step(spark, slen, dg, u)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # job events arrive asynchronously
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == jobs
