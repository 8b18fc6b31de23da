"""Reproduce Tables XIII + XIV: average SQuery time by scale of ΔG.

The paper's scale axis is (|V_P|, |ΔG_D|) from (6, 200) to (10, 1000) on
graphs 1000× larger; ours runs (6, 8) → (10, 40) on the synthetic
analogues — same 5× growth, same pattern sizes (DESIGN.md §4).

Usage: python jobs/run_table13.py [--dataset email-lite] [--seeds 0]
"""
import argparse
import os
import sys

from _session import get_spark

from repro.bench.harness import prepare_query, run_all_methods
from repro.bench.tables import (
    PAPER_TABLE13,
    PAPER_TABLE14,
    emit_reduction_table,
    emit_time_table,
    mean_times,
)

#: scale index i → (pattern nodes, m_g=n_g, m_p=n_p); |ΔG_D| = 4·m_g.
SCALES = {i: (5 + i, i, min(i, 5)) for i in range(1, 6)}
PAPER_KEYS = {1: "(6, 200)", 2: "(7, 400)", 3: "(8, 600)", 4: "(9, 800)", 5: "(10, 1000)"}


def scale_key(i: int) -> str:
    p, g, _ = SCALES[i]
    return f"({p}, {4 * g})"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="email-lite")
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--scales", default="1,2,3,4,5")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    scales = [int(s) for s in args.scales.split(",")]

    spark = get_spark("run_table13")
    rows, paper13, paper14 = {}, {}, {}
    for i in scales:
        p_nodes, g, p_upd = SCALES[i]
        runs = []
        for seed in seeds:
            q = prepare_query(
                spark,
                dataset=args.dataset,
                pattern_nodes=p_nodes,
                m_g=g,
                n_g=g,
                m_p=p_upd,
                n_p=p_upd,
                seed=seed,
            )
            stats = run_all_methods(spark, q)
            runs.append(stats)
            print(
                f"[scale={scale_key(i)} seed={seed}] "
                + " ".join(f"{m}={s.total_seconds:.1f}s" for m, s in stats.items()),
                file=sys.stderr,
            )
        rows[scale_key(i)] = mean_times(runs)
        paper_key = PAPER_KEYS[i]
        paper13[scale_key(i)] = (paper_key, PAPER_TABLE13[paper_key])
        paper14[scale_key(i)] = (paper_key, PAPER_TABLE14[paper_key])

    out = (
        emit_time_table(
            f"Table XIII — average query time by scale of ΔG ({args.dataset})",
            rows,
            paper13,
            row_label="Scale of ΔG",
        )
        + "\n\n"
        + emit_reduction_table(
            "Table XIV — UA-GPNM reduction by scale of ΔG",
            rows,
            paper14,
            row_label="Scale of ΔG",
        )
        + "\n"
    )
    print(out)
    os.makedirs("bench_results", exist_ok=True)
    with open("bench_results/table13_14.md", "w") as f:
        f.write(out)
    spark.stop()


if __name__ == "__main__":
    main()
