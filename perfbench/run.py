"""SQuery benchmark: UA-GPNM against SCRATCH after one batch of updates.

Run from the repository root::

    python3 perfbench/run.py --workload email-mixed --seed 0 --seconds 15 --trace 0

Load model: a closed loop with one client. One SQuery at a time, back to
back, in one process, on Spark ``local[k]`` (k = min(4, nproc)). Each
round answers one SQuery with UA-GPNM (``bench.harness.run_method``) and
then with SCRATCH on the same ``PreparedQuery``; every answer is checked
against ``reference.ref_gpnm`` on the updated graphs.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` is a separate traced run that prints the per-layer metrics
(see ``metrics.py`` for what each should move). The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; a
fuller record (environment, inputs, samples, spans) is written under
``.perfbench/``. The exit code is 1 if any SQuery raised or answered
wrongly, 2 if the checkout has no ``src/repro`` to benchmark.

Seed 1009 is held out: it was never run while the benchmark was tuned,
so a claimed gain is re-checked on it as well.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, UNITS
from tracing import (
    PHASES,
    Tracer,
    layer_metrics,
    lookup,
    patched,
    setup_targets,
    spark_by_phase,
    squery_targets,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Set-ups per timed run: each prepares one instance (sub-seed) of the
#: workload; setup_s is their median and the timed loop cycles over them,
#: so a run's median SQuery does not hang on one pattern and batch.
SETUPS = 2
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
#: An SQuery here is a few dozen Spark jobs on kilobytes of data, so its
#: time is per-job latency. Adaptive execution and whole-stage codegen
#: only add planning and compile time at this size: turning them off cut
#: a run's wall time by ~18 %, and a C1-only JIT with the parallel GC by a
#: further ~11 % (4-core box, email-mixed).
JAVA_OPTIONS = "-XX:TieredStopAtLevel=1 -XX:+UseParallelGC"
#: Keeps the JVMs from writing ``hsperfdata`` under the system temp dir.
NO_PERF_DATA = "-XX:-UsePerfData"
SPARK_CONF = {
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.sql.shuffle.partitions": "2",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.adaptive.enabled": "false",
    "spark.sql.codegen.wholeStage": "false",
}


# ---------------------------------------------------------------------------
# Spark session
# ---------------------------------------------------------------------------


def start_session(*, event_log: bool):
    """A fresh local SparkSession whose files all stay under ``.perfbench``.

    ``src`` goes on the PYTHONPATH the JVM hands to its Python workers, so
    ``applyInPandas`` can import ``repro`` from a checkout with no install.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None  # re-read TMPDIR
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")  # wins over spark.local.dir
    os.environ["SPARK_LAUNCHER_OPTS"] = f"{NO_PERF_DATA} -Djava.io.tmpdir={tmp}"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    conf = dict(SPARK_CONF)
    if event_log:
        (OUT / "eventlog").mkdir(parents=True, exist_ok=True)
        conf.update({
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": str(OUT / "eventlog"),
            "spark.eventLog.compress": "false",
            "spark.eventLog.rolling.enabled": "false",
        })
    args = ["--master", f"local[{CORES}]", "--driver-memory", DRIVER_MEMORY,
            "--driver-java-options", f"-Djava.io.tmpdir={tmp} {NO_PERF_DATA} {JAVA_OPTIONS}"]
    for k, v in conf.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])

    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def peak_rss_mb() -> float | None:
    """Peak RSS of the Spark JVM (VmHWM) plus this Python driver (ru_maxrss).

    None where the JVM's ``/proc`` status cannot be read.
    """
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    if proc is None:
        return None
    try:
        with open(f"/proc/{proc.pid}/status") as f:
            jvm_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None
    return (jvm_kb + resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024


def environment(spark) -> dict:
    mem_mb = None
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_mb = int(line.split()[1]) // 1024
    sha = None
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
            sha = r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_mb,
        "python": platform.python_version(),
        "spark": spark.version,
        "spark_conf": dict(sorted(spark.sparkContext.getConf().getAll())),
        "git_sha": sha,
    }


# ---------------------------------------------------------------------------
# SQueries
# ---------------------------------------------------------------------------


def scratch(spark, q) -> dict[int, set[int]]:
    """From-scratch GPNM on the updated graphs (the bar UA-GPNM must beat)."""
    from repro.core.matching import match_fixpoint, matches_to_dict
    from repro.core.methods import apply_data_updates_spark
    from repro.graphs.updates import apply_updates_pattern
    from repro.partition.partitioned_slen import partitioned_apsp

    gc.collect()
    dg_new = apply_data_updates_spark(spark, q.dg, q.updates)
    slen_new = partitioned_apsp(dg_new.nodes, dg_new.edges).localCheckpoint(eager=True)
    gp_new = apply_updates_pattern(q.gp, q.updates)
    return matches_to_dict(match_fixpoint(spark, gp_new, slen_new, dg_new.nodes))


class Runner:
    """Runs SQueries, checks each answer, counts attempts and failures."""

    def __init__(self, spark) -> None:
        self.spark = spark
        self.attempted = 0
        self.failed = 0

    def squery(self, method: str, q, expected):
        """(seconds, RunStats or None), or None if the SQuery failed."""
        from repro.bench.harness import run_method
        from workloads import normalize

        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if method == "SCRATCH":
                out, stats = scratch(self.spark, q), None
            else:
                out, stats = run_method(self.spark, q, method)
            seconds = time.perf_counter() - t0
        except Exception:  # a failed SQuery is counted, the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if normalize(out) != expected:
            print(f"{method}: answer differs from ref_gpnm on {q.dataset}", file=sys.stderr)
            self.failed += 1
            return None
        return seconds, stats

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            print(f"check failed: {what}", file=sys.stderr)
            self.failed += 1


def _median(xs: list[float]) -> float | None:
    return statistics.median(xs) if xs else None


def measure_timed(spark, w, seed: int, seconds: float, runner: Runner, record: dict) -> dict:
    """End-to-end metrics, tracing off."""
    from workloads import prepare, reference

    instances, setups = [], []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        q = prepare(spark, w, seed * SETUPS + i)
        setups.append(time.perf_counter() - t0)
        expected, inputs = reference(q)
        instances.append((q, expected))
        record["inputs"].append(inputs)

    # Warm-up: the first SQuery of each method in a process is discarded.
    q, expected = instances[0]
    for method in ("UA-GPNM", "SCRATCH"):
        r = runner.squery(method, q, expected)
        record["warmup"][method] = r and r[0]

    ua, sc = [], []
    start, i = time.perf_counter(), 1
    while i <= SETUPS or time.perf_counter() - start < seconds:
        q, expected = instances[i % SETUPS]
        i += 1
        for method, samples in (("UA-GPNM", ua), ("SCRATCH", sc)):
            r = runner.squery(method, q, expected)
            if r:
                samples.append(r[0])
    record["samples"] = {"squery_s": ua, "scratch_s": sc, "prepare_s": setups}
    return {
        "squery_s": _median(ua),
        "scratch_s": _median(sc),
        "setup_s": record["session_s"] + statistics.median(setups),
    }


def measure_traced(spark, w, seed: int, runner: Runner, record: dict) -> tuple[dict, Tracer]:
    """Per-layer metrics from one traced SQuery (plus one untraced for RunStats)."""
    from workloads import prepare, reference

    tracer = Tracer(spark.sparkContext)
    with patched(tracer, setup_targets(tracer)), tracer.span("setup"):
        q = prepare(spark, w, seed * SETUPS)
    expected, inputs = reference(q)
    record["inputs"].append(inputs)

    warm = runner.squery("UA-GPNM", q, expected)
    runner.squery("SCRATCH", q, expected)
    plain = runner.squery("UA-GPNM", q, expected)
    captured: dict = {}
    with patched(tracer, squery_targets(tracer, captured)), tracer.span("squery"):
        traced = runner.squery("UA-GPNM", q, expected)

    m = layer_metrics(tracer)
    m["warmup.squery_s"] = warm and warm[0]
    if plain:
        stats = plain[1]
        m.update({f"phase.{p}_s": stats.phase_seconds.get(p, 0.0) for p in PHASES})
        m["ua.refine_passes"] = stats.n_refine_passes
        m["ua.eliminated"] = stats.n_eliminated
    if plain and traced:
        m["trace.overhead_s"] = traced[0] - plain[0]

    # The global BFS engine on the same G_D_new, side by side with the
    # partitioned one (not part of any SQuery).
    found = lookup("repro.spark_graph.bfs", "apsp")
    dg_new = captured.get("dg_new")
    if found is None or dg_new is None:
        tracer.absent.add("spark_graph.apsp_s")
    else:
        apsp = found[2]
        with tracer.span("spark_graph.apsp"):
            slen_global = apsp(dg_new.nodes, dg_new.edges).localCheckpoint(eager=True)
        m["spark_graph.apsp_s"] = tracer.total("spark_graph.apsp")
        runner.check(
            tracer.bookkeep(slen_global.count) == m["slen.rows_new"],
            "global and partitioned engines disagree on |SLen(G_D_new)|",
        )
    return m, tracer


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def measure(spark, w, seed: int, seconds: float, trace: bool, runner: Runner, record: dict):
    """(metrics, tracer): the timed path, or the traced one (tracer is then set)."""
    tracer = None
    if trace:
        metrics, tracer = measure_traced(spark, w, seed, runner, record)
    else:
        metrics = measure_timed(spark, w, seed, seconds, runner, record)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, tracer


def finish(metrics: dict, tracer: Tracer | None, app_id: str, runner: Runner, record: dict) -> dict:
    """The result line; reads the Spark event log, so call it after the session stopped."""
    names, absent = END_TO_END, set()
    if tracer is not None:
        names, absent = PER_LAYER, tracer.absent
        event_log = OUT / "eventlog" / app_id
        metrics.update(spark_by_phase(event_log, tracer))
        event_log.unlink()  # tens of MB; its per-phase sums are in the record
        record["spans"] = tracer.dump()
    metrics["failed_frac"] = runner.failed / runner.attempted if runner.attempted else 0.0
    values = {m.name: None if m.name in absent else metrics.get(m.name) for m in names}
    record["metrics"] = {
        m.name: {"value": values[m.name], "unit": m.unit, "moves": m.moves} for m in names
    }
    record["absent"] = sorted(absent)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": UNITS[m.name]} for m in names},
    }


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    record = {"workload": w.name, "why": w.why, "seed": args.seed, "trace": args.trace,
              "inputs": [], "warmup": {}}
    t0 = time.perf_counter()
    spark = start_session(event_log=bool(args.trace))
    record["session_s"] = time.perf_counter() - t0
    runner = Runner(spark)
    try:
        record["environment"] = environment(spark)
        app_id = spark.sparkContext.applicationId
        metrics, tracer = measure(spark, w, args.seed, args.seconds, bool(args.trace), runner, record)
    finally:
        stop_session(spark)
    result = finish(metrics, tracer, app_id, runner, record)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    for name, v in result["metrics"].items():
        print(f"{name:32s} {v['value']!s:>24} {v['unit']}")
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
