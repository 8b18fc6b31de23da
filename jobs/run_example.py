"""Reproduce the paper's running example (Table I, Fig. 3, Examples 5–10).

Usage: python jobs/run_example.py
"""
from _session import get_spark

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
from repro.spark_graph.bfs import apsp
from repro.synth_graph import fig1_example


def main() -> None:
    spark = get_spark("run_example")
    ex = fig1_example()
    names = ex["names"]
    dg = DataGraph.from_edge_list(spark, ex["labels"], ex["edges"]).cache()
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    iq = gpnm_from_scratch(spark, dg, ex["pattern"], slen).localCheckpoint(eager=True)

    print("== Table I: node matching results of Example 1 ==")
    for pid, vids in sorted(matches_to_dict(iq).items()):
        print(f"  {ex['pattern'].nodes[pid]:3s} -> {sorted(names[v] for v in vids)}")

    ups = ex["updates"]
    can_sets, aff_sets = {}, {}
    print("== Table IV: Can_RN of pattern updates ==")
    for k in ("U_P1", "U_P2"):
        s = {r.id for r in candidate_nodes_pattern_update(
            spark, ups[k], ex["pattern"], slen, iq, dg.nodes).collect()}
        can_sets[ups[k].uid] = frozenset(s)
        print(f"  {k}: {sorted(names[v] for v in s)}")
    print("== Table VII: Aff_N of data updates ==")
    for k in ("U_D1", "U_D2"):
        s = {r.id for r in affected_nodes_data_update(spark, ups[k], slen).collect()}
        aff_sets[ups[k].uid] = frozenset(s)
        print(f"  {k}: {sorted(names[v] for v in s)}")

    updates_p, updates_d = [ups["U_P1"], ups["U_P2"]], [ups["U_D1"], ups["U_D2"]]
    slices = read_slices(updates_p + updates_d, slen, ex["pattern"], iq, dg.nodes)
    cross = detect_cross_eliminations(updates_p, updates_d, can_sets, aff_sets, slices)
    roots = build_ehtree(
        [(u, "D", aff_sets[u]) for u in aff_sets]
        + [(u, "P", can_sets[u]) for u in can_sets],
        cross,
    )
    print(f"== EH-Tree (Fig. 3): roots={root_uids(roots)} "
          f"eliminated={sorted(eliminated_uids(roots))} ==")

    updates = [ups["U_P1"], ups["U_P2"], ups["U_D1"], ups["U_D2"]]
    for name, fn in METHODS.items():
        res, stats = fn(spark, dg, ex["pattern"], slen, iq, updates)
        print(f"{name:14s} SQuery={ {p: sorted(v) for p, v in sorted(matches_to_dict(res).items())} } "
              f"passes(slen={stats.n_slen_passes}, stale={stats.n_stale_sources}, "
              f"refine={stats.n_refine_passes}, roots={stats.n_roots}, "
              f"eliminated={stats.n_eliminated})")
    spark.stop()


if __name__ == "__main__":
    main()
