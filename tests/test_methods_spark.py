"""All four GPNM methods on randomized instances: exactness + cost accounting."""
import itertools
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core import der, methods
from repro.core.matching import match_fixpoint, matches_to_dict
from repro.core.methods import (
    METHODS,
    RunStats,
    apply_data_updates_spark,
    eh_gpnm,
    inc_gpnm,
    ua_gpnm,
)
from repro.graphs.datagraph import DataGraph
from repro.graphs.pattern import PatternGraph
from repro.graphs.updates import (
    Update,
    apply_updates_data,
    apply_updates_pattern,
    generate_data_updates,
    generate_pattern_updates,
)
from repro.reference import ref_gpnm
from repro.spark_graph.bfs import apsp
from tests.util import spark_jobs, tiny_graph

SEEDS = [0]

_instance_cache: dict[int, tuple] = {}
_GROUPS = itertools.count()


def _mk_instance(spark, seed, n=32, e=100):
    if seed in _instance_cache:
        return _instance_cache[seed]
    _instance_cache[seed] = _build_instance(spark, seed, n, e)
    return _instance_cache[seed]


def _build_instance(spark, seed, n=32, e=100):
    labels, edges = tiny_graph(seed, n=n, e=e, n_labels=4)
    dg = DataGraph.from_edge_list(spark, labels, edges).cache()
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    vocab = sorted(set(labels.values()))
    gp = PatternGraph.of(
        {0: vocab[0], 1: vocab[1], 2: vocab[2]}, [(0, 1, 3), (1, 2, 3)]
    )
    iq = match_fixpoint(spark, gp, slen, dg.nodes).localCheckpoint(eager=True)
    updates = generate_data_updates(labels, edges, m_g=1, n_g=1, seed=seed) + (
        generate_pattern_updates(gp, vocab, m_p=1, n_p=1, seed=seed)
    )
    return labels, edges, dg, slen, gp, iq, updates


def _expected(labels, edges, gp, updates):
    labels_new, edges_new = apply_updates_data(labels, edges, updates)
    gp_new = apply_updates_pattern(gp, updates)
    return gp_new, ref_gpnm(gp_new, labels_new, edges_new)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", list(METHODS))
def test_method_exact_on_random_instance(spark, seed, method):
    labels, edges, dg, slen, gp, iq, updates = _mk_instance(spark, seed)
    gp_new, expected = _expected(labels, edges, gp, updates)
    res, stats = METHODS[method](spark, dg, gp, slen, iq, updates)
    got = matches_to_dict(res)
    assert {p: got.get(p, set()) for p in gp_new.nodes} == expected
    assert stats.method == method


@pytest.mark.parametrize("method", list(METHODS))
def test_data_only_updates(spark, method):
    labels, edges, dg, slen, gp, iq, _ = _mk_instance(spark, 3)
    updates = generate_data_updates(labels, edges, m_g=2, n_g=2, seed=3)
    gp_new, expected = _expected(labels, edges, gp, updates)
    res, _ = METHODS[method](spark, dg, gp, slen, iq, updates)
    got = matches_to_dict(res)
    assert {p: got.get(p, set()) for p in gp_new.nodes} == expected


@pytest.mark.parametrize("method", list(METHODS))
def test_pattern_only_updates(spark, method):
    labels, edges, dg, slen, gp, iq, _ = _mk_instance(spark, 4)
    vocab = sorted(set(labels.values()))
    updates = generate_pattern_updates(gp, vocab, m_p=2, n_p=2, seed=4)
    gp_new, expected = _expected(labels, edges, gp, updates)
    res, _ = METHODS[method](spark, dg, gp, slen, iq, updates)
    got = matches_to_dict(res)
    assert {p: got.get(p, set()) for p in gp_new.nodes} == expected


@pytest.mark.parametrize("method", list(METHODS))
def test_empty_update_list(spark, method):
    labels, edges, dg, slen, gp, iq, _ = _mk_instance(spark, 5)
    res, stats = METHODS[method](spark, dg, gp, slen, iq, [])
    assert matches_to_dict(res) == matches_to_dict(iq)


def _phase_jobs(spark, monkeypatch, phase_name, fn):
    """``fn()`` and the number of Spark jobs started inside its ``phase_name``
    phases, read from a job group of their own (a group keeps its finished jobs)."""
    sc = spark.sparkContext
    group = f"phase-{phase_name}-{next(_GROUPS)}"
    phase = RunStats.phase

    @contextmanager
    def grouped(self, name):
        with phase(self, name):
            if name == phase_name:
                sc.setJobGroup(group, f"UA-GPNM {phase_name}")
            try:
                yield
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)

    monkeypatch.setattr(RunStats, "phase", grouped)
    out = fn()
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # job events arrive asynchronously
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


class TestCostAccounting:
    def test_inc_counts_one_pass_per_update(self, spark):
        labels, edges, dg, slen, gp, iq, updates = _mk_instance(spark, 6)
        _, stats = inc_gpnm(spark, dg, gp, slen, iq, updates)
        assert stats.n_refine_passes == len(updates)
        assert stats.n_slen_passes == len([u for u in updates if u.graph == "D"])

    def test_eh_refines_at_most_inc(self, spark):
        labels, edges, dg, slen, gp, iq, updates = _mk_instance(spark, 6)
        _, inc_stats = inc_gpnm(spark, dg, gp, slen, iq, updates)
        _, eh_stats = eh_gpnm(spark, dg, gp, slen, iq, updates)
        assert eh_stats.n_refine_passes <= inc_stats.n_refine_passes
        # EH still pays one SLen maintenance pass per data update
        assert eh_stats.n_slen_passes == inc_stats.n_slen_passes

    def test_ua_single_slen_pass_and_fewest_refines(self, spark):
        labels, edges, dg, slen, gp, iq, updates = _mk_instance(spark, 6)
        _, eh_stats = eh_gpnm(spark, dg, gp, slen, iq, updates)
        _, ua_stats = ua_gpnm(spark, dg, gp, slen, iq, updates)
        assert ua_stats.n_slen_passes == 1 and ua_stats.n_stale_sources > 0
        assert ua_stats.n_roots <= eh_stats.n_refine_passes + len(
            [u for u in updates if u.graph == "P"]
        )
        assert ua_stats.n_roots == len(updates) - ua_stats.n_eliminated
        assert ua_stats.n_refine_passes == 0

    def test_nopar_and_par_same_counters(self, spark):
        labels, edges, dg, slen, gp, iq, updates = _mk_instance(spark, 7)
        _, a = ua_gpnm(spark, dg, gp, slen, iq, updates, partitioned=False)
        _, b = ua_gpnm(spark, dg, gp, slen, iq, updates, partitioned=True)
        assert (a.n_roots, a.n_eliminated) == (b.n_roots, b.n_eliminated)

    @pytest.mark.parametrize("partitioned, jobs", [(True, 8), (False, 8)])
    def test_ua_squery_spark_jobs(self, spark, monkeypatch, partitioned, jobs):
        """A whole UA-GPNM SQuery: the detect reads, the graph update's
        checkpoints, the batched SLen step and one answer pass, with no
        regional pass. Pinned, so an added Spark action shows."""
        labels, edges, dg, slen, gp, iq, updates = _mk_instance(spark, 6)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return match_fixpoint(*args, **kwargs)

        monkeypatch.setattr(methods, "match_fixpoint", counted)
        (_, stats), n_jobs = spark_jobs(
            spark, lambda: ua_gpnm(spark, dg, gp, slen, iq, updates, partitioned=partitioned)
        )
        assert "refine" not in stats.phase_seconds
        assert len(calls) == 1
        assert n_jobs == jobs

    def test_inc_reads_each_data_update_slice_once(self, spark, monkeypatch):
        """INC-GPNM's affected area and SLen step share one slice read."""
        labels, edges, dg, slen, gp, iq, updates = _mk_instance(spark, 6)
        data_uids = [u.uid for u in updates if u.graph == "D"]
        reads = Counter()
        read_slices = der.read_slices

        def counted(ups, *args, **kwargs):
            reads.update(u.uid for u in ups if u.graph == "D")
            return read_slices(ups, *args, **kwargs)

        monkeypatch.setattr(methods, "read_slices", counted)
        monkeypatch.setattr(der, "read_slices", counted)
        inc_gpnm(spark, dg, gp, slen, iq, updates)
        assert data_uids and reads == Counter(data_uids)

    @pytest.mark.parametrize("n_updates", [1, 16])
    def test_ua_detect_makes_at_most_four_spark_jobs(self, spark, monkeypatch, n_updates):
        """DER-I/II/III read what they need in a constant number of Spark jobs,
        whatever the batch size: 16 is Table XI's mix, 12 data and 4 pattern."""
        labels, edges, dg, slen, gp, iq, _ = _mk_instance(spark, 6)
        vocab = sorted(set(labels.values()))
        batch = generate_data_updates(labels, edges, m_g=3, n_g=3, seed=6) + (
            generate_pattern_updates(gp, vocab, m_p=2, n_p=2, seed=6)
        )
        assert len(batch) == 16
        _, jobs = _phase_jobs(
            spark, monkeypatch, "detect", lambda: ua_gpnm(spark, dg, gp, slen, iq, batch[:n_updates])
        )
        assert 1 <= jobs <= 4

    @pytest.mark.parametrize("partitioned", [True, False])
    def test_ua_keeps_slen_without_a_spark_job_when_no_data_update(
        self, spark, monkeypatch, partitioned
    ):
        """A batch of pattern updates alone has no stale source, so the SLen
        step keeps SLen as it is: the ``slen`` phase makes no Spark job."""
        labels, edges, dg, slen, gp, iq, updates = _mk_instance(spark, 6)
        batch = [u for u in updates if u.graph == "P"]
        assert batch
        (_, stats), jobs = _phase_jobs(
            spark, monkeypatch, "slen",
            lambda: ua_gpnm(spark, dg, gp, slen, iq, batch, partitioned=partitioned),
        )
        assert jobs == 0
        assert (stats.n_slen_passes, stats.n_stale_sources) == (0, 0)

    @pytest.mark.parametrize("partitioned", [True, False])
    def test_ua_small_step_runs_on_the_driver(self, spark, monkeypatch, partitioned):
        """One edge insertion in each graph, as on the email-mixed benchmark:
        the step is small enough for the driver, so the ``slen`` phase is the
        graph update's two checkpoints, the id read and the edge read,
        whichever the builder, and the answer is still exact."""
        labels, edges, dg, slen, gp, iq, updates = _mk_instance(spark, 6)
        batch = [u for u in updates if u.graph == "P" or u.kind == "edge_ins"]
        assert {u.graph for u in batch} == {"D", "P"}
        (out, stats), jobs = _phase_jobs(
            spark, monkeypatch, "slen",
            lambda: ua_gpnm(spark, dg, gp, slen, iq, batch, partitioned=partitioned),
        )
        assert 0 < stats.n_stale_sources < len(labels)
        assert jobs == 4
        gp_new, expected = _expected(labels, edges, gp, batch)
        got = matches_to_dict(out)
        assert {p: got.get(p, set()) for p in gp_new.nodes} == expected

    def test_phase_timings_recorded(self, spark):
        labels, edges, dg, slen, gp, iq, updates = _mk_instance(spark, 8)
        _, stats = ua_gpnm(spark, dg, gp, slen, iq, updates)
        assert set(stats.phase_seconds) == {"detect", "slen", "consolidate"}
        assert stats.total_seconds > 0


class TestApplyDataUpdatesSpark:
    def test_matches_python_application(self, spark):
        labels, edges = tiny_graph(9, n=25, e=70)
        dg = DataGraph.from_edge_list(spark, labels, edges)
        updates = generate_data_updates(labels, edges, m_g=2, n_g=2, seed=9)
        dg_new = apply_data_updates_spark(spark, dg, updates)
        exp_labels, exp_edges = apply_updates_data(labels, edges, updates)
        got_labels, got_edges = dg_new.to_python()
        assert got_labels == exp_labels
        assert sorted(got_edges) == sorted(exp_edges)

    @pytest.mark.parametrize(
        "batch", ["edge_del-then-edge_ins", "edge_ins-then-node_del", "no-data-update"]
    )
    def test_batch_applied_in_order(self, spark, batch):
        """The batch applies in order, as ``apply_updates_data`` applies it:
        a deleted then re-inserted edge stays; an edge inserted at a node
        the batch later deletes goes with it. A batch with no data update
        leaves the graph as it is without running a Spark job."""
        labels, edges, dg, slen, gp, iq, _ = _mk_instance(spark, 0)
        if batch == "edge_del-then-edge_ins":
            a, b = edges[0]
            updates = [
                Update(graph="D", kind="edge_del", src=a, dst=b),
                Update(graph="D", kind="edge_ins", src=a, dst=b),
            ]
        elif batch == "edge_ins-then-node_del":
            x, y = next((x, y) for x in labels for y in labels if x != y and (x, y) not in edges)
            updates = [
                Update(graph="D", kind="edge_ins", src=x, dst=y),
                Update(graph="D", kind="node_del", node=x),
            ]
        else:
            updates = []
        exp_labels, exp_edges = apply_updates_data(labels, edges, updates)
        dg_new, jobs = spark_jobs(spark, lambda: apply_data_updates_spark(spark, dg, updates))
        if not updates:
            assert dg_new is dg and jobs == 0
        got_labels, got_edges = dg_new.to_python()
        assert got_labels == exp_labels
        assert sorted(got_edges) == sorted(exp_edges)
        res, _ = METHODS["UA-GPNM"](spark, dg, gp, slen, iq, updates)
        got = matches_to_dict(res)
        assert {p: got.get(p, set()) for p in gp.nodes} == ref_gpnm(gp, exp_labels, exp_edges)

    def test_ignores_pattern_updates(self, spark):
        labels, edges = tiny_graph(10, n=20, e=50)
        dg = DataGraph.from_edge_list(spark, labels, edges)
        dg_new = apply_data_updates_spark(
            spark, dg, [Update(graph="P", kind="node_del", node=0)]
        )
        assert dg_new.counts() == (len(labels), len(edges))


class TestBatchValidation:
    """The slice rules assume each node a data update names is in SLen, each
    attach edge touches its inserted node, and an inserted node is new; a
    batch breaking any of these is refused before any set is computed."""

    @pytest.mark.parametrize(
        "kind",
        ["edge_ins", "edge_del", "node_del", "node_ins-attach", "node_ins-detached", "node_ins-existing"],
    )
    def test_ua_gpnm_rejects_the_batch(self, spark, kind):
        labels, edges, dg, slen, gp, iq, _ = _mk_instance(spark, 0)
        ghost, new = max(labels) + 100, max(labels) + 1
        a = sorted(labels)[0]
        u = {
            "edge_ins": Update(graph="D", kind="edge_ins", src=ghost, dst=a),
            "edge_del": Update(graph="D", kind="edge_del", src=a, dst=ghost),
            "node_del": Update(graph="D", kind="node_del", node=ghost),
            "node_ins-attach": Update(
                graph="D", kind="node_ins", node=new, label="A", attach_edges=((new, ghost),)
            ),
            "node_ins-detached": Update(
                graph="D", kind="node_ins", node=new, label="A", attach_edges=((a, a + 1),)
            ),
            "node_ins-existing": Update(
                graph="D", kind="node_ins", node=a, label="A", attach_edges=((a, new - 1),)
            ),
        }[kind]
        with pytest.raises(ValueError, match="missing from SLen|does not touch|already in SLen"):
            ua_gpnm(spark, dg, gp, slen, iq, [u])


class TestEliminationEffectiveness:
    def test_overlapping_workload_yields_eliminations(self, spark):
        """The workload generator's overlap bias must produce real
        elimination relationships (otherwise UA degenerates to INC)."""
        labels, edges = tiny_graph(11, n=40, e=140, n_labels=4)
        dg = DataGraph.from_edge_list(spark, labels, edges).cache()
        slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
        vocab = sorted(set(labels.values()))
        gp = PatternGraph.of({0: vocab[0], 1: vocab[1]}, [(0, 1, 3)])
        iq = match_fixpoint(spark, gp, slen, dg.nodes).localCheckpoint(eager=True)
        updates = generate_data_updates(
            labels, edges, m_g=3, n_g=3, seed=11, overlap=0.9
        )
        _, stats = ua_gpnm(spark, dg, gp, slen, iq, updates)
        assert stats.n_eliminated >= 1
