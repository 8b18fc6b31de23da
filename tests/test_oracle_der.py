"""DER set computations cross-checked against DuckDB SQL formulations.

These pin the *relational semantics* of the detection queries: the same
candidate/affected sets must fall out of an independent SQL statement
run by DuckDB over the same inputs (via ``repro.oracle.assert_equivalent``).
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.der import (
    affected_nodes_data_update,
    affected_sets,
    candidate_nodes_pattern_update,
    read_slices,
    source_sets,
)
from repro.core.matching import match_fixpoint
from repro.graphs.datagraph import DataGraph
from repro.graphs.pattern import PatternGraph
from repro.graphs.updates import Update
from repro.oracle import assert_equivalent
from repro.spark_graph.bfs import apsp
from tests.util import tiny_graph


@pytest.fixture(scope="module")
def inst(spark):
    labels, edges = tiny_graph(6, n=30, e=90, n_labels=4)
    dg = DataGraph.from_edge_list(spark, labels, edges).cache()
    slen = apsp(dg.nodes, dg.edges).localCheckpoint(eager=True)
    vocab = sorted(set(labels.values()))
    gp = PatternGraph.of({0: vocab[0], 1: vocab[1]}, [(0, 1, 3)])
    iq = match_fixpoint(spark, gp, slen, dg.nodes).localCheckpoint(eager=True)
    pdf = {
        "slen": slen.toPandas(),
        "nodes": pd.DataFrame({"id": list(labels.keys()), "label": list(labels.values())}),
        "iq": iq.toPandas(),
    }
    return labels, edges, dg, slen, gp, iq, pdf


def test_edge_ins_candidates_match_sql(spark, inst):
    """Can_RN of an inserted pattern edge (u→u', k) as a NOT EXISTS query."""
    labels, edges, dg, slen, gp, iq, pdf = inst
    k = 2
    u = Update(graph="P", kind="edge_ins", src=0, dst=1, bound=k)
    spark_df = candidate_nodes_pattern_update(spark, u, gp, slen, iq, dg.nodes)
    sql = f"""
      WITH m0 AS (SELECT vid FROM iq WHERE pid = 0),
           m1 AS (SELECT vid FROM iq WHERE pid = 1)
      SELECT vid AS id FROM m0 WHERE NOT EXISTS (
        SELECT 1 FROM slen s JOIN m1 ON s.dst = m1.vid
        WHERE s.src = m0.vid AND s.dist <= {k})
      UNION
      SELECT vid AS id FROM m1 WHERE NOT EXISTS (
        SELECT 1 FROM slen s JOIN m0 ON s.src = m0.vid
        WHERE s.dst = m1.vid AND s.dist <= {k})
    """
    assert_equivalent(spark_df, sql, slen=pdf["slen"], iq=pdf["iq"])


def test_edge_ins_affected_nodes_match_sql(spark, inst):
    """Aff_N of a data edge insertion as a min-plus relax comparison."""
    labels, edges, dg, slen, gp, iq, pdf = inst
    eset = set(edges)
    ids = sorted(labels)
    a, b = next(
        (x, y) for x in ids for y in ids if x != y and (x, y) not in eset
    )
    u = Update(graph="D", kind="edge_ins", src=a, dst=b)
    spark_df = affected_nodes_data_update(spark, u, slen)
    sql = f"""
      WITH via AS (
        SELECT ta.src AS src, fb.dst AS dst, MIN(ta.dist + 1 + fb.dist) AS nd
        FROM slen ta, slen fb
        WHERE ta.dst = {a} AND fb.src = {b}
        GROUP BY ta.src, fb.dst),
      changed AS (
        SELECT v.src, v.dst FROM via v LEFT JOIN slen s
          ON s.src = v.src AND s.dst = v.dst
        WHERE s.dist IS NULL OR v.nd < s.dist)
      SELECT src AS id FROM changed UNION SELECT dst AS id FROM changed
    """
    assert_equivalent(spark_df, sql, slen=pdf["slen"])


def test_changed_pairs_match_sql(spark, inst):
    """DER-II of an insertion, batched, equals the endpoints of the pairs a
    min-plus relax improves, by SQL over the whole of SLen."""
    labels, edges, dg, slen, gp, iq, pdf = inst
    eset = set(edges)
    ids = sorted(labels)
    a, b = next(
        (x, y) for x in reversed(ids) for y in ids if x != y and (x, y) not in eset
    )
    u = Update(graph="D", kind="edge_ins", src=a, dst=b)
    got = affected_sets([u], read_slices([u], slen))[u.uid]
    ids_df = spark.createDataFrame([(i,) for i in sorted(got)], "id long")
    sql = f"""
      WITH via AS (
        SELECT ta.src AS src, fb.dst AS dst, MIN(ta.dist + 1 + fb.dist) AS new_dist
        FROM slen ta, slen fb
        WHERE ta.dst = {a} AND fb.src = {b}
        GROUP BY ta.src, fb.dst),
      changed AS (
        SELECT v.src, v.dst FROM via v LEFT JOIN slen s
          ON s.src = v.src AND s.dst = v.dst
        WHERE s.dist IS NULL OR v.new_dist < s.dist)
      SELECT src AS id FROM changed UNION SELECT dst AS id FROM changed
    """
    assert_equivalent(ids_df, sql, slen=pdf["slen"])


def test_affected_sources_edge_delete_match_sql(spark, inst):
    labels, edges, dg, slen, gp, iq, pdf = inst
    a, b = edges[4]
    u = Update(graph="D", kind="edge_del", src=a, dst=b)
    ids = source_sets([u], read_slices([u], slen))[u.uid]
    spark_df = spark.createDataFrame([(i,) for i in sorted(ids)], "id long")
    sql = f"""
      SELECT da.src AS id FROM slen da JOIN slen db ON da.src = db.src
      WHERE da.dst = {a} AND db.dst = {b} AND db.dist = da.dist + 1
    """
    assert_equivalent(spark_df, sql, slen=pdf["slen"])


def test_label_partition_bridges_match_sql(spark, inst):
    from repro.partition.label_partition import inner_bridge_nodes

    labels, edges, dg, slen, gp, iq, pdf = inst
    spark_df = inner_bridge_nodes(dg.nodes, dg.edges)
    sql = """
      SELECT DISTINCT ns.label AS pid, e.src AS id
      FROM edges e JOIN nodes ns ON e.src = ns.id JOIN nodes nd ON e.dst = nd.id
      WHERE ns.label <> nd.label
    """
    assert_equivalent(
        spark_df, sql,
        edges=pd.DataFrame(edges, columns=["src", "dst"]),
        nodes=pdf["nodes"],
    )
