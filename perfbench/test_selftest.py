"""Self-test of the benchmark on a tiny input.

Runs the timed and the traced path in one Spark session and checks that
every metric ``BENCHMARK.json`` names is emitted with its unit, and that
no SQuery failed. Run from the repository root::

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
import json
import sys

import pytest

import run
from metrics import END_TO_END, PER_LAYER

sys.path.insert(0, str(run.SRC))
from workloads import WORKLOADS, Workload  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMOKE = Workload(
    "smoke", "email-lite", 30, 150, m_g=0, n_g=1, m_p=0, n_p=1,
    kinds=("edge_ins",), pattern_nodes=4, why="self-test",
)


def test_benchmark_json_matches_metric_table():
    def rows(entries):
        return [(e["name"], e["unit"], e["better"]) for e in entries]

    assert rows(BENCHMARK["end_to_end"]) == [(m.name, m.unit, m.better) for m in END_TO_END]
    assert rows(BENCHMARK["per_layer"]) == [(m.name, m.unit, m.better) for m in PER_LAYER]
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_both_paths_emit_every_metric_without_failures(monkeypatch):
    from pyspark import SparkContext

    if SparkContext._active_spark_context is not None:
        pytest.skip("needs its own JVM: the benchmark fixes its Spark conf at launch")
    monkeypatch.setattr(run, "SETUPS", 1)
    record = {"inputs": [], "warmup": {}, "session_s": 0.0}
    spark = run.start_session(event_log=True)
    runner = run.Runner(spark)
    try:
        app_id = spark.sparkContext.applicationId
        timed = run.measure(spark, SMOKE, 0, 0, False, runner, record)
        traced = run.measure(spark, SMOKE, 0, 0, True, runner, record)
    finally:
        run.stop_session(spark)

    for section, (metrics, tracer) in (("end_to_end", timed), ("per_layer", traced)):
        result = run.finish(metrics, tracer, app_id, runner, record)
        assert result["failed"] == 0 and result["correct"]
        emitted = {name: m["unit"] for name, m in result["metrics"].items() if m["value"] is not None}
        assert emitted == {e["name"]: e["unit"] for e in BENCHMARK[section]}
    assert traced[0]["failed_frac"] == 0
