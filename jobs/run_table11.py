"""Reproduce Tables XI + XII: average SQuery time per dataset × method.

Usage: python jobs/run_table11.py [--seeds 0,1] [--datasets email-lite,...]
Writes markdown to stdout and to bench_results/table11_12.md.
"""
import argparse
import os
import sys

from _session import get_spark

from repro.bench.harness import prepare_query, run_all_methods
from repro.bench.tables import (
    PAPER_TABLE11,
    PAPER_TABLE12,
    emit_reduction_table,
    emit_time_table,
    mean_times,
)
from repro.synth_graph import DATASETS


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--datasets", default=",".join(DATASETS))
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.datasets.split(",")

    spark = get_spark("run_table11")
    rows: dict[str, dict[str, float]] = {}
    paper_rows_t11, paper_rows_t12 = {}, {}
    for name in names:
        runs = []
        for seed in seeds:
            q = prepare_query(spark, dataset=name, seed=seed)
            stats = run_all_methods(spark, q)
            runs.append(stats)
            print(
                f"[{name} seed={seed}] "
                + " ".join(f"{m}={s.total_seconds:.1f}s" for m, s in stats.items()),
                file=sys.stderr,
            )
        rows[name] = mean_times(runs)
        paper_name = DATASETS[name].paper_name
        paper_rows_t11[name] = (paper_name, PAPER_TABLE11[paper_name])
        paper_rows_t12[name] = (paper_name, PAPER_TABLE12[paper_name])

    out = (
        emit_time_table(
            "Table XI — average query processing time per dataset",
            rows,
            paper_rows_t11,
        )
        + "\n\n"
        + emit_reduction_table(
            "Table XII — UA-GPNM reduction vs other methods",
            rows,
            paper_rows_t12,
        )
        + "\n"
    )
    print(out)
    os.makedirs("bench_results", exist_ok=True)
    with open("bench_results/table11_12.md", "w") as f:
        f.write(out)
    spark.stop()


if __name__ == "__main__":
    main()
