"""Spans around the program's layers, and the Spark event log split by phase.

The program has no spans of its own, so the traced run wraps each layer's
public functions from here, patching every name where its caller looks it
up (``repro.core.methods.affected_nodes_data_update`` as well as
``repro.core.der.*``). Each span:

* records name, start, end and parent in memory (written out at the end);
* sets the Spark job group to its own id, so the event log attributes
  jobs, tasks, shuffle and result bytes to it;
* materialises a returned lazy DataFrame inside itself, so the work lands
  in the span that caused it.

Counting rows for a span's counters is extra work the untraced program
never does; it runs after the span has closed under the job group
``trace`` (excluded from the per-phase Spark figures), so it shows up only
in ``trace.overhead_s``.

A public name that a later change removes is reported as an absent
metric (``None``), never as an error.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

PHASES = ("detect", "slen", "refine", "consolidate")
BOOKKEEPING_GROUP = "trace"


@dataclass
class Span:
    sid: str
    name: str
    parent: str | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder bound to one SparkContext."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(f"s{len(self.spans)}", name, parent.sid if parent else None, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        self.sc.setJobGroup(s.sid, name)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self._restore_group()

    def bookkeep(self, fn):
        """Run ``fn`` (a counting action) outside every span's job group."""
        self.sc.setJobGroup(BOOKKEEPING_GROUP, "tracer bookkeeping")
        try:
            return fn()
        finally:
            self._restore_group()

    def _restore_group(self) -> None:
        if self._stack:
            top = self._stack[-1]
            self.sc.setJobGroup(top.sid, top.name)
        else:
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    # -- aggregation -------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def count_sum(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def phase_of(self, sid: str) -> str:
        """The UA-GPNM phase enclosing span ``sid``, or ``other``."""
        by_id = {s.sid: s for s in self.spans}
        s = by_id.get(sid)
        while s is not None:
            if s.name.startswith("phase."):
                return s.name[len("phase."):]
            s = by_id.get(s.parent)
        return "other"

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _frame_wrapper(tracer: Tracer, name: str, count_key: str | None = None):
    """Span around a function returning a DataFrame; materialise it inside."""

    def factory(orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                df = orig(*args, **kwargs).localCheckpoint(eager=True)
            if count_key:
                s.counts[count_key] = tracer.bookkeep(df.count)
            return df

        return wrapper

    return factory


def _plain_wrapper(tracer: Tracer, name: str, after=None):
    """Span around any function; ``after(span, args, kwargs, result)`` fills counters."""

    def factory(orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                out = orig(*args, **kwargs)
            if after:
                after(s, args, kwargs, out)
            return out

        return wrapper

    return factory


def _phase_wrapper(tracer: Tracer):
    """``RunStats.phase`` opens a ``phase.<name>`` span around its timer."""

    def factory(orig):
        @contextlib.contextmanager
        def phase(self, name):
            with tracer.span(f"phase.{name}"), orig(self, name):
                yield

        return phase

    return factory


def lookup(module_name: str, path: str):
    """(owner, attr, value) for ``module.path``, or None if it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Install ``targets`` = [(module, "attr.path", factory, metrics)].

    A target whose name no longer exists marks its metrics absent.
    """
    saved = []
    try:
        for module_name, path, factory, metrics in targets:
            found = lookup(module_name, path)
            if found is None:
                tracer.absent.update(metrics)
                continue
            owner, attr, orig = found
            setattr(owner, attr, factory(orig))
            saved.append((owner, attr, orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def setup_targets(tracer: Tracer):
    """``bench.harness.prepare_query``'s three steps."""
    return [
        ("repro.bench.harness", "dataset_graph",
         _plain_wrapper(tracer, "setup.graph"), ["setup.graph_s"]),
        ("repro.bench.harness", "partitioned_apsp",
         _frame_wrapper(tracer, "setup.iquery_slen"), ["setup.iquery_slen_s"]),
        ("repro.bench.harness", "gpnm_from_scratch",
         _frame_wrapper(tracer, "setup.iquery"), ["setup.iquery_s", "setup.pattern_attempts"]),
    ]


def squery_targets(tracer: Tracer, captured: dict):
    """Every layer UA-GPNM calls, patched where its caller looks it up."""

    def cross_after(s, args, kwargs, out):
        s.counts["pairs"] = len(out)

    def ehtree_after(s, args, kwargs, out):
        entries = args[0] if args else kwargs["entries"]
        s.counts["roots"] = len(out)
        s.counts["entries"] = len(entries)
        found = lookup("repro.core.ehtree", "eliminated_uids")
        if found is None:
            tracer.absent.add("ehtree.elim_ratio")
        else:
            s.counts["eliminated"] = len(found[2](out))

    def apply_after(s, args, kwargs, out):
        captured["dg_new"] = out

    def closure_after(s, args, kwargs, out):
        rows = tracer.bookkeep(out.collect)
        pids = {r["pid"] for r in rows}
        s.counts["frac"] = len(rows) / (len(pids) ** 2) if pids else 0.0

    def match_factory(orig):
        span_factory = _plain_wrapper(tracer, "matching.fixpoint")(orig)

        @functools.wraps(orig)
        def wrapper(spark, pattern, slen, nodes, universe=None):
            base = universe
            if base is None:  # the default universe: every label-consistent pair
                found = lookup("repro.core.matching", "label_candidates")
                if found is None:
                    tracer.absent.add("matching.universe_pairs")
                else:
                    base = found[2](spark, pattern, nodes)
            n_universe = tracer.bookkeep(base.count) if base is not None else 0
            out = span_factory(spark, pattern, slen, nodes, universe)
            s = tracer.named("matching.fixpoint")[-1]
            s.counts["universe"] = n_universe
            s.counts["result"] = tracer.bookkeep(out.count)
            return out

        return wrapper

    aff = _frame_wrapper(tracer, "der.aff_n", "ids")
    can = _frame_wrapper(tracer, "der.can_n", "ids")
    relax = _frame_wrapper(tracer, "spark_graph.relax")
    aff_m = ["der.aff_n_s", "der.aff_n_calls", "der.aff_n_ids"]
    can_m = ["der.can_n_s", "der.can_n_calls", "der.can_n_ids"]
    return [
        ("repro.core.methods", "RunStats.phase", _phase_wrapper(tracer),
         [f"phase.{p}_s" for p in PHASES]),
        ("repro.core.methods", "affected_nodes_data_update", aff, aff_m),
        ("repro.core.methods", "candidate_nodes_pattern_update", can, can_m),
        ("repro.core.der", "candidate_nodes_pattern_update", can, can_m),
        ("repro.core.methods", "detect_cross_eliminations",
         _plain_wrapper(tracer, "der.cross", cross_after), ["der.cross_s", "der.cross_pairs"]),
        ("repro.core.der", "slen_after_insertion",
         _frame_wrapper(tracer, "der.slen_new"), ["der.slen_new_builds"]),
        ("repro.core.der", "relax_edge_insert", relax,
         ["spark_graph.relax_calls", "spark_graph.relax_s"]),
        ("repro.core.methods", "build_ehtree",
         _plain_wrapper(tracer, "ehtree.build", ehtree_after),
         ["ehtree.build_s", "ehtree.roots", "ehtree.elim_ratio"]),
        ("repro.core.methods", "apply_data_updates_spark",
         _plain_wrapper(tracer, "apply.data", apply_after), ["apply.data_s", "spark_graph.apsp_s"]),
        ("repro.core.methods", "partitioned_apsp",
         _frame_wrapper(tracer, "partition.apsp", "rows"), ["partition.apsp_s", "slen.rows_new"]),
        ("repro.partition.partitioned_slen", "reach_closure",
         _plain_wrapper(tracer, "partition.closure", closure_after), ["partition.closure_frac"]),
        ("repro.core.methods", "match_fixpoint", match_factory,
         ["matching.calls", "matching.fixpoint_s", "matching.universe_pairs", "matching.result_pairs"]),
    ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced SQuery (and its setup)."""
    t, c = tracer.total, tracer.count_sum
    eh = tracer.named("ehtree.build")
    entries = sum(s.counts.get("entries", 0) for s in eh)
    closures = [s.counts["frac"] for s in tracer.named("partition.closure")]
    apsp = tracer.named("partition.apsp")
    out = {
        "der.aff_n_s": t("der.aff_n"),
        "der.aff_n_calls": len(tracer.named("der.aff_n")),
        "der.aff_n_ids": c("der.aff_n", "ids"),
        "der.can_n_s": t("der.can_n"),
        "der.can_n_calls": len(tracer.named("der.can_n")),
        "der.can_n_ids": c("der.can_n", "ids"),
        "der.cross_s": t("der.cross"),
        "der.cross_pairs": c("der.cross", "pairs"),
        "der.slen_new_builds": len(tracer.named("der.slen_new")),
        "ehtree.build_s": t("ehtree.build"),
        "ehtree.roots": c("ehtree.build", "roots"),
        "ehtree.elim_ratio": c("ehtree.build", "eliminated") / entries if entries else 0.0,
        "apply.data_s": t("apply.data"),
        "partition.apsp_s": t("partition.apsp"),
        "partition.closure_frac": sum(closures) / len(closures) if closures else 0.0,
        "spark_graph.relax_calls": len(tracer.named("spark_graph.relax")),
        "spark_graph.relax_s": t("spark_graph.relax"),
        "slen.rows_new": apsp[-1].counts.get("rows", 0) if apsp else 0,
        "matching.calls": len(tracer.named("matching.fixpoint")),
        "matching.fixpoint_s": t("matching.fixpoint"),
        "matching.universe_pairs": c("matching.fixpoint", "universe"),
        "matching.result_pairs": c("matching.fixpoint", "result"),
        "setup.graph_s": t("setup.graph"),
        "setup.iquery_slen_s": t("setup.iquery_slen"),
        "setup.iquery_s": t("setup.iquery"),
        "setup.pattern_attempts": len(tracer.named("setup.iquery")),
    }
    roots = tracer.named("squery")
    if roots:
        phase_time = sum(
            s.seconds for s in tracer.spans
            if s.parent == roots[-1].sid and s.name.startswith("phase.")
        )
        out["trace.unattributed_s"] = roots[-1].seconds - phase_time
    return out


# ---------------------------------------------------------------------------
# Spark event log
# ---------------------------------------------------------------------------


def spark_by_phase(event_log_path, tracer: Tracer) -> dict[str, float]:
    """``spark.<phase>.{jobs,tasks,shuffle_bytes,result_bytes}`` from the log.

    A job belongs to the phase enclosing the span whose id is its job
    group; a stage belongs to the first job that lists it (a later job
    that reuses a shuffle stage skips it and runs none of its tasks).
    """
    phase_of = {s.sid: tracer.phase_of(s.sid) for s in tracer.spans}
    stage_phase: dict[int, str] = {}
    per = defaultdict(Counter)
    with open(event_log_path) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                phase = phase_of.get(group)
                if phase is None:
                    continue
                per[phase]["jobs"] += 1
                for stage in ev.get("Stage IDs", ()):
                    stage_phase.setdefault(stage, phase)
            elif kind == "SparkListenerTaskEnd":
                phase = stage_phase.get(ev.get("Stage ID"))
                if phase is None:
                    continue
                m = ev.get("Task Metrics") or {}
                per[phase]["tasks"] += 1
                per[phase]["shuffle_bytes"] += (m.get("Shuffle Write Metrics") or {}).get(
                    "Shuffle Bytes Written", 0
                )
                per[phase]["result_bytes"] += m.get("Result Size", 0)
    return {
        f"spark.{p}.{what}": per[p][what]
        for p in PHASES
        for what in ("jobs", "tasks", "shuffle_bytes", "result_bytes")
    }
