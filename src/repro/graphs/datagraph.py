"""Data graph ``G_D`` as a pair of Spark DataFrames.

The paper's data graph is a directed graph whose nodes carry a label
(``f_a``; the paper allows a label *set*, every example uses a single
label, so we model one label per node — see DESIGN.md). Edges are
unweighted and directed; path length = hop count, matching BGS [4].

Schema:
  * ``nodes``:  ``id: long``, ``label: string``
  * ``edges``:  ``src: long``, ``dst: long``
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

NODES_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("label", T.StringType(), False),
    ]
)
EDGES_SCHEMA = T.StructType(
    [
        T.StructField("src", T.LongType(), False),
        T.StructField("dst", T.LongType(), False),
    ]
)
#: A set of node ids: deleted nodes, an update's region.
ID_SCHEMA = T.StructType([T.StructField("id", T.LongType(), False)])


@dataclass(frozen=True)
class DataGraph:
    """Immutable handle on a data graph's node and edge DataFrames."""

    nodes: DataFrame
    edges: DataFrame

    @staticmethod
    def from_pandas(
        spark: SparkSession, nodes_pdf: pd.DataFrame, edges_pdf: pd.DataFrame
    ) -> "DataGraph":
        """Build a DataGraph from pandas frames with columns (id,label)/(src,dst)."""
        nodes = spark.createDataFrame(
            nodes_pdf[["id", "label"]].astype({"id": "int64"}), schema=NODES_SCHEMA
        )
        edges = spark.createDataFrame(
            edges_pdf[["src", "dst"]].astype({"src": "int64", "dst": "int64"})
            if len(edges_pdf)
            else pd.DataFrame({"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")}),
            schema=EDGES_SCHEMA,
        )
        return DataGraph(nodes=nodes, edges=edges)

    @staticmethod
    def from_edge_list(
        spark: SparkSession,
        node_labels: dict[int, str],
        edge_list: list[tuple[int, int]],
    ) -> "DataGraph":
        """Build from a plain Python node→label dict and edge list (tests, examples)."""
        nodes_pdf = pd.DataFrame(
            {"id": list(node_labels.keys()), "label": list(node_labels.values())}
        )
        edges_pdf = pd.DataFrame(edge_list, columns=["src", "dst"]) if edge_list else pd.DataFrame(
            {"src": [], "dst": []}
        )
        return DataGraph.from_pandas(spark, nodes_pdf, edges_pdf)

    def cache(self) -> "DataGraph":
        """Cache both DataFrames and return self (fluent)."""
        self.nodes.cache()
        self.edges.cache()
        return self

    def counts(self) -> tuple[int, int]:
        """(#nodes, #edges) — actions; use sparingly."""
        return self.nodes.count(), self.edges.count()

    def to_python(self) -> tuple[dict[int, str], list[tuple[int, int]]]:
        """Collect to a node→label dict and edge list (for the reference oracle)."""
        labels = {int(r["id"]): r["label"] for r in self.nodes.collect()}
        edges = [(int(r["src"]), int(r["dst"])) for r in self.edges.collect()]
        return labels, edges
