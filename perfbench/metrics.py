"""Every metric the benchmark reports: name, unit, direction, and what it moves.

``BENCHMARK.json`` lists the same names and units (its schema has no room
for the ``moves`` column, so the column lives here and in each run's
record). The self-test checks that the two stay in step.

End-to-end metrics come from the untraced run (``--trace 0``), per-layer
metrics from the separate traced run (``--trace 1``).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    moves: str  # the end-to-end metric (and workload) this one should move


END_TO_END = [
    Metric("squery_s", "s", "lower", "UA-GPNM SQuery wall time incl. the final collect; median of the post-warm-up repeats"),
    Metric("scratch_s", "s", "lower", "SCRATCH (apply, partitioned APSP, fixpoint) on the same inputs; median"),
    Metric("setup_s", "s", "lower", "SparkSession start + median prepare_query (graph, IQuery SLen, pattern scan)"),
]

_PHASES = ("detect", "slen", "refine", "consolidate")

PER_LAYER = [
    # core.methods: RunStats of one untraced UA-GPNM SQuery
    *(
        Metric(f"phase.{p}_s", "s", "lower", f"squery_s: the {p} phase of UA-GPNM")
        for p in _PHASES
    ),
    Metric("ua.refine_passes", "count", "lower", "squery_s through refine (one pass per EH-Tree root)"),
    Metric("ua.eliminated", "count", "higher", "squery_s through refine (updates that need no pass)"),
    # core.der
    Metric("der.aff_n_s", "s", "lower", "squery_s on email-mixed; 0 on email-pattern"),
    Metric("der.aff_n_calls", "count", "lower", "squery_s on email-mixed; 0 on email-pattern"),
    Metric("der.aff_n_ids", "count", "lower", "squery_s on email-mixed (Aff_N payload collected)"),
    Metric("der.can_n_s", "s", "lower", "squery_s on email-pattern and email-mixed"),
    Metric("der.can_n_calls", "count", "lower", "squery_s on email-pattern and email-mixed (incl. DER-III residuals)"),
    Metric("der.can_n_ids", "count", "lower", "squery_s on email-pattern and email-mixed (Can_N payload collected)"),
    Metric("der.cross_s", "s", "lower", "squery_s on email-mixed only"),
    Metric("der.cross_pairs", "count", "higher", "squery_s on email-mixed only; 0 on email-pattern"),
    Metric("der.slen_new_builds", "count", "lower", "squery_s on email-mixed only"),
    # core.ehtree
    Metric("ehtree.build_s", "s", "lower", "squery_s"),
    Metric("ehtree.roots", "count", "lower", "squery_s through refine passes, mostly on email-mixed"),
    Metric("ehtree.elim_ratio", "ratio", "higher", "squery_s: eliminated / updates, detection's useful-work ratio"),
    # core.methods.apply_data_updates_spark
    Metric("apply.data_s", "s", "lower", "squery_s and scratch_s on email-mixed"),
    # partition
    Metric("partition.apsp_s", "s", "lower", "squery_s and scratch_s everywhere; setup_s"),
    Metric("partition.closure_frac", "ratio", "lower", "partition.apsp_s: mean reach-closure labels / labels (1.0 = no pruning)"),
    # spark_graph
    Metric("spark_graph.apsp_s", "s", "lower", "none: the global engine on the same G_D_new, side by side with partition.apsp_s"),
    Metric("spark_graph.relax_calls", "count", "lower", "squery_s on email-mixed (DER-III SLen_new builds)"),
    Metric("spark_graph.relax_s", "s", "lower", "squery_s on email-mixed"),
    Metric("slen.rows_new", "count", "lower", "partition.apsp_s: rows of SLen on G_D_new"),
    # core.matching
    Metric("matching.calls", "count", "lower", "squery_s on email-pattern"),
    Metric("matching.fixpoint_s", "s", "lower", "squery_s on email-pattern; scratch_s and setup_s on all"),
    Metric("matching.universe_pairs", "count", "lower", "matching.fixpoint_s: candidate pairs over all calls"),
    Metric("matching.result_pairs", "count", "lower", "matching.fixpoint_s: surviving pairs over all calls"),
    # Spark event log, per UA-GPNM phase
    *(
        Metric(f"spark.{p}.{what}", unit, "lower", f"phase.{p}_s on every workload")
        for p in _PHASES
        for what, unit in (
            ("jobs", "count"),
            ("tasks", "count"),
            ("shuffle_bytes", "bytes"),
            ("result_bytes", "bytes"),
        )
    ),
    # bench.harness
    Metric("setup.graph_s", "s", "lower", "setup_s"),
    Metric("setup.iquery_slen_s", "s", "lower", "setup_s"),
    Metric("setup.iquery_s", "s", "lower", "setup_s"),
    Metric("setup.pattern_attempts", "count", "lower", "setup_s"),
    # the run itself (diagnostics)
    Metric("warmup.squery_s", "s", "lower", "none: the discarded first UA-GPNM SQuery"),
    Metric("trace.overhead_s", "s", "lower", "none: traced minus untraced squery_s"),
    Metric("trace.unattributed_s", "s", "lower", "none: traced SQuery time outside the four phases"),
    Metric("peak_rss_mb", "MB", "lower", "none: Spark JVM VmHWM + Python driver ru_maxrss"),
    Metric("failed_frac", "fraction", "lower", "none: SQueries that raised or differ from ref_gpnm / attempted"),
]

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
