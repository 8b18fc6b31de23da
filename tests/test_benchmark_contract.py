"""The names the SQuery benchmark (``perfbench/``) uses from the program.

The benchmark imports the program's functions, calls them with fixed
arguments, and its traced run wraps layer functions by name. A renamed
function, a changed signature or a missing field there makes a run crash
or report a metric as absent, and then the run's last line is no result.
These checks read ``perfbench/`` without changing it and start no Spark.
"""
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "repro"


def _load(name):
    """A ``perfbench`` module, loaded from its file without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


def _perfbench_trees():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PERFBENCH.glob("*.py"))]


def _program_imports():
    """(file, module, name) of every ``from repro... import name`` in ``perfbench``."""
    return [
        (file, node.module, alias.name)
        for file, tree in _perfbench_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
        for alias in node.names
    ]


def _lookups():
    """(module, path) of every ``lookup("module", "path")`` in ``perfbench``."""
    return sorted({
        (node.args[0].value, node.args[1].value)
        for _, tree in _perfbench_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lookup"
        and len(node.args) == 2 and all(isinstance(a, ast.Constant) for a in node.args)
    })


#: (module, name, positional args, keyword args) of each call the benchmark makes.
CALLS = [
    ("repro.core.matching", "match_fixpoint", ["spark", "gp", "slen", "nodes"], {}),
    ("repro.core.matching", "match_fixpoint", ["spark", "gp", "slen", "nodes"], {"universe": None}),
    ("repro.core.matching", "label_candidates", ["spark", "gp", "nodes"], {}),
    ("repro.core.matching", "matches_to_dict", ["df"], {}),
    ("repro.core.methods", "apply_data_updates_spark", ["spark", "dg", "updates"], {}),
    ("repro.partition.partitioned_slen", "partitioned_apsp", ["nodes", "edges"], {}),
    ("repro.graphs.updates", "apply_updates_pattern", ["gp", "updates"], {}),
    ("repro.graphs.updates", "apply_updates_data", ["labels", "edges", "updates"], {}),
    ("repro.bench.harness", "run_method", ["spark", "q", "method"], {}),
    (
        "repro.bench.harness",
        "prepare_query",
        ["spark"],
        dict.fromkeys(["dataset", "pattern_nodes", "m_g", "n_g", "m_p", "n_p", "seed"]),
    ),
    ("repro.reference", "ref_gpnm", ["gp", "labels", "edges"], {}),
    ("repro.reference", "ref_apsp", ["ids", "edges"], {}),
    ("repro.synth_graph", "dataset_graph", ["name"], {}),
    ("repro.core.ehtree", "build_ehtree", [], {"entries": []}),
    ("repro.core.ehtree", "eliminated_uids", ["roots"], {}),
    ("repro.spark_graph.bfs", "apsp", ["nodes", "edges"], {}),
]


def _targets():
    tracer = tracing.Tracer(None)
    return tracing.setup_targets(tracer) + tracing.squery_targets(tracer, {})


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _, _ in _targets()], ids=str)
def test_every_traced_name_resolves(module, path):
    assert tracing.lookup(module, path) is not None, f"{module}.{path} is gone"


@pytest.mark.parametrize("module, path", _lookups(), ids=str)
def test_every_name_the_benchmark_looks_up_resolves(module, path):
    assert tracing.lookup(module, path) is not None, f"{module}.{path} is gone"


def test_every_benchmark_import_succeeds():
    imports = _program_imports()
    assert {f for f, _, _ in imports} == {"run.py", "workloads.py"}
    for file, module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{file}: {module}.{name}"


@pytest.mark.parametrize(
    "module, name, args, kwargs", CALLS, ids=[f"{m}.{n}" for m, n, _, _ in CALLS]
)
def test_benchmark_calls_still_bind(module, name, args, kwargs):
    fn = getattr(__import__(module, fromlist=[name]), name)
    inspect.signature(fn).bind(*args, **kwargs)


def test_fields_the_benchmark_reads_exist():
    from repro.bench.harness import PreparedQuery
    from repro.core.methods import METHODS, RunStats
    from repro.synth_graph import DATASETS, DatasetSpec

    assert {"dataset", "dg", "gp", "slen", "iquery", "updates"} <= {
        f.name for f in dataclasses.fields(PreparedQuery)
    }
    assert {"name", "n_nodes", "n_edges", "paper_name", "paper_nodes", "paper_edges"} <= {
        f.name for f in dataclasses.fields(DatasetSpec)
    }
    assert "email-lite" in DATASETS
    assert "UA-GPNM" in METHODS
    stats = RunStats(method="UA-GPNM")
    assert (stats.phase_seconds, stats.n_refine_passes, stats.n_eliminated) == ({}, 0, 0)
    inspect.signature(RunStats.phase).bind(stats, "detect")


def _calls_in_program(name):
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                    yield path.relative_to(SRC), node


def test_program_calls_match_fixpoint_as_the_tracer_wraps_it():
    """The traced wrapper is ``(spark, pattern, slen, nodes, universe=None)``."""
    calls = list(_calls_in_program("match_fixpoint"))
    assert calls
    for path, node in calls:
        assert len(node.args) <= 5, path
        assert {k.arg for k in node.keywords} <= {"universe"}, path


def test_program_sets_no_job_group():
    """The traced run owns the Spark job groups: one per span."""
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for word in ("setJobGroup", "spark.jobGroup.id", "setJobDescription"):
            assert word not in text, f"{path.relative_to(SRC)} uses {word}"
