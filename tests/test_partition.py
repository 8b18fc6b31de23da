"""Label partition (§V): bridge nodes, quotient closure, partitioned APSP."""
import pytest

from repro.graphs.datagraph import DataGraph
from repro.partition.label_partition import (
    inner_bridge_nodes,
    outer_bridge_nodes,
    partition_of_nodes,
    quotient_edges,
    reach_closure,
)
from repro.partition.partitioned_slen import partitioned_apsp
from repro.reference import ref_apsp
from repro.spark_graph.slen import SLEN_SCHEMA
from repro.synth_graph import fig4_example
from tests.util import spark_jobs, tiny_graph

SEEDS = [0, 1, 2, 3]


def _rings(sizes: dict[str, int]) -> tuple[dict[int, str], list[tuple[int, int]]]:
    """One directed ring per label, ``sizes[label]`` nodes each, ids in order."""
    labels: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for lbl, k in sizes.items():
        ids = list(range(len(labels), len(labels) + k))
        labels.update(dict.fromkeys(ids, lbl))
        edges += [(ids[i], ids[(i + 1) % k]) for i in range(k)] if k > 1 else []
    return labels, edges


def _one_way_bridges():
    """A → B → C through one bridge edge each: A reaches every label, C only itself."""
    labels, edges = _rings({"A": 3, "B": 3, "C": 3})
    return labels, edges + [(2, 3), (5, 6)]


def _sink_partition():
    """A and B both lead into C, which has no outer bridge; D is isolated."""
    labels, edges = _rings({"A": 3, "B": 2, "C": 3, "D": 1})
    return labels, edges + [(0, 5), (3, 7), (1, 3)]


#: Inputs whose partition quotient graph is not one SCC, so some partition's
#: reach closure misses a label.
NON_SCC = {
    "sparse-0": lambda: tiny_graph(0, n=40, e=43, n_labels=5),
    "sparse-1": lambda: tiny_graph(1, n=40, e=43, n_labels=5),
    "one-way-bridges": _one_way_bridges,
    "sink-partition": _sink_partition,
}


def _closure_misses_a_label(dg) -> bool:
    """Some partition's reach closure is not every label."""
    n_labels = dg.nodes.select("label").distinct().count()
    return len(reach_closure(dg.nodes, dg.edges).collect()) < n_labels**2


@pytest.fixture(scope="module")
def fig4(spark):
    ex = fig4_example()
    dg = DataGraph.from_edge_list(spark, ex["labels"], ex["edges"]).cache()
    return ex, dg


class TestBridgeNodes:
    def test_partition_ids_are_labels(self, spark, fig4):
        ex, dg = fig4
        got = {(r.id, r.pid) for r in partition_of_nodes(dg.nodes).collect()}
        assert got == {(i, l) for i, l in ex["labels"].items()}

    def test_fig4_inner_bridges_of_pse(self, spark, fig4):
        """Example 12: IB(P_SE) = {SE1, SE2}."""
        ex, dg = fig4
        ib = {r.id for r in inner_bridge_nodes(dg.nodes, dg.edges).collect()
              if r.pid == "SE"}
        assert ib == ex["ib_pse"]

    def test_fig4_outer_bridges_of_pse(self, spark, fig4):
        """Example 13: OB(P_SE) = {PM1, TE1}."""
        ex, dg = fig4
        ob = {r.id for r in outer_bridge_nodes(dg.nodes, dg.edges).collect()
              if r.pid == "SE"}
        assert ob == ex["ob_pse"]

    def test_fig4_pte_has_no_outer_bridge(self, spark, fig4):
        """Example 14: OB(P_TE) = ∅ (its edges stay inside)."""
        _, dg = fig4
        ob = [r for r in outer_bridge_nodes(dg.nodes, dg.edges).collect()
              if r.pid == "TE"]
        assert ob == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bridges_match_python_definition(self, spark, seed):
        labels, edges = tiny_graph(seed)
        dg = DataGraph.from_edge_list(spark, labels, edges)
        ib_exp, ob_exp = set(), set()
        for s, d in edges:
            if labels[s] != labels[d]:
                ib_exp.add((labels[s], s))
                ob_exp.add((labels[s], d))
        assert {(r.pid, r.id) for r in inner_bridge_nodes(dg.nodes, dg.edges).collect()} == ib_exp
        assert {(r.pid, r.id) for r in outer_bridge_nodes(dg.nodes, dg.edges).collect()} == ob_exp


class TestQuotientClosure:
    def test_fig4_quotient(self, spark, fig4):
        _, dg = fig4
        q = {(r.src_pid, r.dst_pid) for r in quotient_edges(dg.nodes, dg.edges).collect()}
        assert q == {("SE", "PM"), ("PM", "SE"), ("SE", "TE")}

    def test_fig4_closure(self, spark, fig4):
        """P_SE must absorb P_PM and P_TE; P_TE only itself (Example 14)."""
        _, dg = fig4
        cl: dict[str, set[str]] = {}
        for r in reach_closure(dg.nodes, dg.edges).collect():
            cl.setdefault(r.pid, set()).add(r.member_pid)
        assert cl["SE"] == {"SE", "PM", "TE"}
        assert cl["TE"] == {"TE"}
        assert cl["PM"] == {"PM", "SE", "TE"}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_closure_reflexive_and_transitive(self, spark, seed):
        labels, edges = tiny_graph(seed)
        dg = DataGraph.from_edge_list(spark, labels, edges)
        cl: dict[str, set[str]] = {}
        for r in reach_closure(dg.nodes, dg.edges).collect():
            cl.setdefault(r.pid, set()).add(r.member_pid)
        q = [(r.src_pid, r.dst_pid) for r in quotient_edges(dg.nodes, dg.edges).collect()]
        for p, members in cl.items():
            assert p in members
            for m in members:  # transitivity
                assert cl[m] <= members
        for a, b in q:  # one-step reachability included
            assert b in cl[a]


class TestPartitionedAPSP:
    def test_fig4_tables_8_and_9(self, spark, fig4):
        ex, dg = fig4
        got = {(r.src, r.dst): r.dist for r in partitioned_apsp(dg.nodes, dg.edges).collect()}
        for k, v in ex["table8"].items():
            assert got[k] == v, f"Table VIII mismatch at {k}"
        for k, v in ex["table9"].items():
            assert got[k] == v, f"Table IX mismatch at {k}"
        pse = [ex["nid"][n] for n in ("SE1", "SE2", "SE3", "SE4")]
        pte = [ex["nid"][n] for n in ("TE1", "TE2", "TE3")]
        # ∞ entries of Tables VIII/IX are exactly the absent pairs
        for a in pse:
            for b in pse + pte:
                if (a, b) not in ex["table8"] and (a, b) not in ex["table9"]:
                    assert (a, b) not in got

    @pytest.mark.parametrize("seed", SEEDS + list(NON_SCC))
    def test_equals_reference_apsp(self, spark, seed):
        """Theorem 3: the partitioned computation is exact, also where a
        partition's reach closure is not every label."""
        if seed in NON_SCC:
            labels, edges = NON_SCC[seed]()
        else:
            labels, edges = tiny_graph(seed, n=40, e=120, n_labels=5)
        dg = DataGraph.from_edge_list(spark, labels, edges)
        assert seed in SEEDS or _closure_misses_a_label(dg)
        got = {(r.src, r.dst): r.dist for r in partitioned_apsp(dg.nodes, dg.edges).collect()}
        assert got == ref_apsp(sorted(labels), edges)

    def test_partitioned_bfs_subset_sources(self, spark):
        """A step from an SLen whose stale sources' rows are wrong: those rows
        go, BFS from the stale sources alone gives them back, the rest stay."""
        inputs = [(tiny_graph(7, n=30, e=90), 6)] + [(make(), 3) for make in NON_SCC.values()]
        for (labels, edges), step in inputs:
            dg = DataGraph.from_edge_list(spark, labels, edges)
            stale = set(sorted(labels)[::step])
            full = ref_apsp(sorted(labels), edges)
            wrong = [(s, d, v + 7 if s in stale else v) for (s, d), v in full.items()]
            slen = spark.createDataFrame(wrong, schema=SLEN_SCHEMA)
            got = partitioned_apsp(dg.nodes, dg.edges, slen, stale).collect()
            assert {(r.src, r.dst): r.dist for r in got} == full

    def test_isolated_partition_distances_stay_internal(self, spark):
        """OB(P_i)=∅ ⇒ no finite distance leaves the partition (Alg. 5 line 3)."""
        labels = {0: "A", 1: "A", 2: "B"}
        edges = [(0, 1)]  # partition A never reaches B
        dg = DataGraph.from_edge_list(spark, labels, edges)
        got = {(r.src, r.dst) for r in partitioned_apsp(dg.nodes, dg.edges).collect()}
        assert (0, 2) not in got and (1, 2) not in got


def test_partitioned_apsp_spark_jobs(spark):
    """A build above ``DRIVER_BFS_ROWS`` (110 × 110 rows): the id read that
    places it, then ``grouped_bfs`` with the checkpoint ``slen_step`` takes.
    One job group, pinned, so a Spark action added before the BFS (a
    ``collect``, say) shows."""
    labels, edges = tiny_graph(0, n=110, e=330, n_labels=5)
    dg = DataGraph.from_edge_list(spark, labels, edges).cache()
    dg.counts()
    _, jobs = spark_jobs(spark, lambda: partitioned_apsp(dg.nodes, dg.edges))
    assert jobs == 4
