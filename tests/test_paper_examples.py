"""Reproduce every worked example/table of the paper (Tables I, III–IX,
Fig. 3, Examples 5–10 and 12–15) on the reconstructed example graphs."""
import pytest

from repro.core.der import (
    affected_nodes_data_update,
    candidate_nodes_pattern_update,
    detect_cross_eliminations,
    read_slices,
)
from repro.core.ehtree import build_ehtree, eliminated_uids, root_uids
from repro.core.gpnm import gpnm_from_scratch
from repro.core.matching import matches_to_dict
from repro.core.methods import METHODS
from repro.graphs.datagraph import DataGraph
from repro.graphs.updates import apply_updates_data, apply_updates_pattern
from repro.reference import ref_apsp, ref_gpnm
from repro.spark_graph.bfs import apsp
from repro.spark_graph.slen import relax_edge_insert
from repro.synth_graph import fig1_example, fig4_example


@pytest.fixture(scope="module")
def fig1(spark):
    ex = fig1_example()
    dg = DataGraph.from_edge_list(spark, ex["labels"], ex["edges"]).cache()
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    iq = gpnm_from_scratch(spark, dg, ex["pattern"], slen).localCheckpoint(eager=True)
    return ex, dg, slen, iq


class TestTable1And3:
    def test_table3_slen(self, spark, fig1):
        """Table III: the full SLen matrix of Fig. 2(a), ∞ = absent."""
        ex, dg, slen, iq = fig1
        got = {(r.src, r.dst): r.dist for r in slen.collect()}
        assert got == ex["slen_table3"]

    def test_table1_iquery(self, spark, fig1):
        """Table I / Example 5: the IQuery node matching results."""
        ex, dg, slen, iq = fig1
        assert matches_to_dict(iq) == ex["iquery"]


class TestTables4And7:
    def test_table4_can_rn(self, spark, fig1):
        """Table IV: Can_RN(U_P1) = {PM2, TE2}; Can_RN(U_P2) = {TE2}."""
        ex, dg, slen, iq = fig1
        for key in ("U_P1", "U_P2"):
            got = {
                r.id
                for r in candidate_nodes_pattern_update(
                    spark, ex["updates"][key], ex["pattern"], slen, iq, dg.nodes
                ).collect()
            }
            assert got == ex["can_rn"][key], key

    def test_table7_aff_n(self, spark, fig1):
        """Table VII: Aff_N(U_D1) = all 8 nodes; Aff_N(U_D2) = 5 nodes."""
        ex, dg, slen, iq = fig1
        for key in ("U_D1", "U_D2"):
            got = {
                r.id
                for r in affected_nodes_data_update(
                    spark, ex["updates"][key], slen
                ).collect()
            }
            assert got == ex["aff_n"][key], key


class TestTables5And6:
    @pytest.mark.parametrize("key", ["U_D1", "U_D2"])
    def test_slen_new_matches_reference(self, spark, fig1, key):
        """Tables V/VI: SLen_new after each single insertion is the exact
        APSP of the updated graph."""
        ex, dg, slen, iq = fig1
        u = ex["updates"][key]
        got = {
            (r.src, r.dst): r.dist
            for r in relax_edge_insert(slen, u.src, u.dst).collect()
        }
        assert got == ref_apsp(sorted(ex["labels"]), ex["edges"] + [(u.src, u.dst)])

    def test_table5_published_entries(self, spark, fig1):
        """Spot-check Table V's new TE2 column (incl. AFF(PM2,TE2)=(∞,2))."""
        ex, dg, slen, iq = fig1
        u = ex["updates"]["U_D1"]
        got = {
            (r.src, r.dst): r.dist
            for r in relax_edge_insert(slen, u.src, u.dst).collect()
        }
        nid = ex["nid"]
        te2 = nid["TE2"]
        published_te2_col = {
            "PM1": 3, "PM2": 2, "SE1": 1, "SE2": 3, "S1": 3, "TE1": 4, "DB1": 2
        }
        for name, d in published_te2_col.items():
            assert got[(nid[name], te2)] == d, name

    def test_table6_published_entries(self, spark, fig1):
        """Spot-check Table VI's changed S1 column after U_D2."""
        ex, dg, slen, iq = fig1
        u = ex["updates"]["U_D2"]
        got = {
            (r.src, r.dst): r.dist
            for r in relax_edge_insert(slen, u.src, u.dst).collect()
        }
        nid = ex["nid"]
        s1 = nid["S1"]
        published_s1_col = {"PM1": 2, "SE2": 2, "TE1": 3, "DB1": 1}
        for name, d in published_s1_col.items():
            assert got[(nid[name], s1)] == d, name


def _cross(ex, dg, slen, iq, can_sets, aff_sets):
    """DER-III over the four updates of Fig. 2, from one batch's slices."""
    ups = ex["updates"]
    updates_p, updates_d = [ups["U_P1"], ups["U_P2"]], [ups["U_D1"], ups["U_D2"]]
    slices = read_slices(updates_p + updates_d, slen, ex["pattern"], iq, dg.nodes)
    return detect_cross_eliminations(updates_p, updates_d, can_sets, aff_sets, slices)


class TestEliminations:
    def test_type1_up1_eliminates_up2(self, spark, fig1):
        """Example 7: Can_RN(U_P1) ⊇ Can_RN(U_P2) ⇒ U_P1 ⊒ U_P2, so U_P2
        is U_P1's child in the EH-Tree."""
        ex, *_ = fig1
        roots = build_ehtree([(k, "P", frozenset(v)) for k, v in ex["can_rn"].items()])
        assert root_uids(roots) == ["U_P1"]
        assert [c.uid for c in roots[0].children] == ["U_P2"]

    def test_type2_ud1_eliminates_ud2(self, spark, fig1):
        """Example 8: Aff_N(U_D1) ⊇ Aff_N(U_D2) ⇒ U_D1 ⪰ U_D2, so U_D2
        is U_D1's child in the EH-Tree."""
        ex, *_ = fig1
        roots = build_ehtree([(k, "D", frozenset(v)) for k, v in ex["aff_n"].items()])
        assert root_uids(roots) == ["U_D1"]
        assert [c.uid for c in roots[0].children] == ["U_D2"]

    def test_type3_example9(self, spark, fig1):
        """Example 9: U_P1 ⇔ U_D1 (AFF(PM2,TE2) = (∞,2) ≤ bound 2)."""
        ex, dg, slen, iq = fig1
        ups = ex["updates"]
        can_sets = {ups[k].uid: frozenset(ex["can_rn"][k]) for k in ("U_P1", "U_P2")}
        aff_sets = {ups[k].uid: frozenset(ex["aff_n"][k]) for k in ("U_D1", "U_D2")}
        cross = _cross(ex, dg, slen, iq, can_sets, aff_sets)
        assert (ups["U_P1"].uid, ups["U_D1"].uid) in cross
        # U_D2 does not cover Can(U_P1), so it cannot eliminate it
        assert (ups["U_P1"].uid, ups["U_D2"].uid) not in cross

    def test_fig3_ehtree(self, spark, fig1):
        """Example 10 / Fig. 3: U_D1 is the sole root; U_D2, U_P1 its
        children; U_P2 under U_P1."""
        ex, dg, slen, iq = fig1
        ups = ex["updates"]
        can_sets = {ups[k].uid: frozenset(ex["can_rn"][k]) for k in ("U_P1", "U_P2")}
        aff_sets = {ups[k].uid: frozenset(ex["aff_n"][k]) for k in ("U_D1", "U_D2")}
        cross = _cross(ex, dg, slen, iq, can_sets, aff_sets)
        entries = [(u, "D", aff_sets[u]) for u in aff_sets] + [
            (u, "P", can_sets[u]) for u in can_sets
        ]
        roots = build_ehtree(entries, cross)
        assert root_uids(roots) == [ups["U_D1"].uid]
        kids = {c.uid for c in roots[0].children}
        assert kids == {ups["U_D2"].uid, ups["U_P1"].uid}
        up1 = next(c for c in roots[0].children if c.uid == ups["U_P1"].uid)
        assert [c.uid for c in up1.children] == [ups["U_P2"].uid]


class TestSQueryAllMethods:
    @pytest.mark.parametrize("method", list(METHODS))
    def test_squery_exact(self, spark, fig1, method):
        """Example 2/6: every method returns the exact SQuery for the
        four updates of Fig. 2."""
        ex, dg, slen, iq = fig1
        ups = ex["updates"]
        updates = [ups["U_P1"], ups["U_P2"], ups["U_D1"], ups["U_D2"]]
        labels_new, edges_new = apply_updates_data(ex["labels"], ex["edges"], updates)
        gp_new = apply_updates_pattern(ex["pattern"], updates)
        expected = ref_gpnm(gp_new, labels_new, edges_new)
        res, stats = METHODS[method](spark, dg, ex["pattern"], slen, iq, updates)
        got = matches_to_dict(res)
        assert {p: got.get(p, set()) for p in gp_new.nodes} == expected
        assert stats.n_refine_passes >= 1

    def test_ua_gpnm_eliminates_three_of_four(self, spark, fig1):
        """With Fig. 3's tree, UA-GPNM processes exactly one root update."""
        ex, dg, slen, iq = fig1
        ups = ex["updates"]
        updates = [ups["U_P1"], ups["U_P2"], ups["U_D1"], ups["U_D2"]]
        _, stats = METHODS["UA-GPNM"](spark, dg, ex["pattern"], slen, iq, updates)
        assert stats.n_eliminated == 3
        assert stats.n_refine_passes == 1
        assert stats.n_slen_passes == 1


class TestFig4Examples:
    def test_examples_11_to_15(self, spark):
        """Fig. 4 + Tables VIII/IX via the partitioned engine (module
        test_partition.py covers them in depth; this is the end-to-end
        pass over the paper's §V narrative)."""
        from repro.partition.partitioned_slen import partitioned_apsp

        ex = fig4_example()
        dg = DataGraph.from_edge_list(spark, ex["labels"], ex["edges"])
        got = {
            (r.src, r.dst): r.dist
            for r in partitioned_apsp(dg.nodes, dg.edges).collect()
        }
        assert got == ref_apsp(sorted(ex["labels"]), ex["edges"])
        for k, v in {**ex["table8"], **ex["table9"]}.items():
            assert got[k] == v
