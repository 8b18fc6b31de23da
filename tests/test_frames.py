"""``local_frame`` builds the same frame as a plain ``createDataFrame``, and
is the only way the program builds a driver-side frame; ``grouped_bfs`` is
the only caller of ``applyInPandas``."""
import ast
from pathlib import Path

import pytest

from repro.core.matching import MATCH_SCHEMA
from repro.frames import local_frame
from repro.graphs.datagraph import EDGES_SCHEMA, ID_SCHEMA, NODES_SCHEMA
from repro.graphs.pattern import STAR
from repro.partition.label_partition import CLOSURE_SCHEMA
from repro.spark_graph.slen import SLEN_SCHEMA

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

CASES = {
    "match": (MATCH_SCHEMA, [(0, 3), (1, 4), (2, 5)]),
    "match-empty": (MATCH_SCHEMA, []),
    "id": (ID_SCHEMA, [(7,), (1,)]),
    "id-empty": (ID_SCHEMA, []),
    "nodes": (NODES_SCHEMA, [(0, "A"), (1, "B")]),
    "edges": (EDGES_SCHEMA, [(0, 1), (1, 2)]),
    "slen-star": (SLEN_SCHEMA, [(4, 4, 0), (0, 9, STAR)]),
    "closure": (CLOSURE_SCHEMA, [("A", "A"), ("A", "B"), ("B", "B")]),
}


@pytest.fixture
def arrow_only(spark):
    """Fail instead of silently falling back to the row-by-row path."""
    key = "spark.sql.execution.arrow.pyspark.fallback.enabled"
    before = spark.conf.get(key)
    spark.conf.set(key, "false")
    try:
        yield spark
    finally:
        spark.conf.set(key, before)


@pytest.mark.parametrize("case", list(CASES))
def test_local_frame_equals_create_data_frame(arrow_only, case):
    schema, rows = CASES[case]
    got = local_frame(arrow_only, rows, schema)
    want = arrow_only.createDataFrame(rows, schema)
    assert got.schema == want.schema == schema
    assert sorted(got.collect()) == sorted(want.collect())


@pytest.mark.parametrize("case", list(CASES))
def test_local_frame_runs_no_python_worker(arrow_only, case):
    """An action on the frame runs in the JVM alone, empty frames included."""
    schema, rows = CASES[case]
    lineage = local_frame(arrow_only, rows, schema)._jdf.queryExecution().toRdd().toDebugString()
    assert "PythonRDD" not in lineage


def _callers(attr: str) -> set[tuple[str, str]]:
    """(module path, innermost enclosing function) of every use of ``.attr``."""
    found = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        fns = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                owner = min(
                    (f for f in fns if f.lineno <= node.lineno <= f.end_lineno),
                    key=lambda f: f.end_lineno - f.lineno,
                    default=None,
                )
                found.add((path.relative_to(SRC).as_posix(), owner.name if owner else "<module>"))
    return found


def test_only_local_frame_calls_create_data_frame():
    """A list-built frame costs a Python-worker round trip on every action
    (DESIGN.md §6); ``DataGraph.from_pandas`` already holds a pandas frame."""
    assert _callers("createDataFrame") == {
        ("frames.py", "local_frame"),
        ("graphs/datagraph.py", "from_pandas"),
    }


def test_only_grouped_bfs_calls_apply_in_pandas():
    """Python-worker jobs stay in the BFS kernel's one Spark builder; a build
    or step small enough for the driver runs the same kernel there (DESIGN.md §6)."""
    assert _callers("applyInPandas") == {("spark_graph/bfs.py", "grouped_bfs")}
