"""Driver-built Spark DataFrames.

Every small frame the driver assembles from Python values (update
batches, update regions, matching results, the partition closure) goes
through ``local_frame``. It hands Spark a typed pandas frame instead of a
list of tuples: with ``spark.sql.execution.arrow.pyspark.enabled`` the
rows then travel to the JVM as one Arrow batch, where a list is shipped
as a Python RDD and every action on the frame, or on any frame built
from it, pays a Python-worker round trip (DESIGN.md §6). With Arrow off,
PySpark converts the pandas frame row by row: same rows, same schema.
"""
from __future__ import annotations

from collections.abc import Iterable, Set

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

#: pandas dtype holding each Spark column type the program builds.
_PANDAS_DTYPE = {T.LongType(): "int64", T.StringType(): "object"}
#: A value of each type, for the filler row of an empty frame.
_FILLER = {T.LongType(): 0, T.StringType(): ""}


def local_frame(
    spark: SparkSession, rows: Iterable[tuple], schema: T.StructType
) -> DataFrame:
    """``rows`` (tuples in ``schema``'s column order) as a DataFrame of ``schema``.

    PySpark sends an empty pandas frame down its row-by-row path, as a
    Python RDD, so an empty frame is one filler row cut by ``limit(0)``.
    """
    rows = list(rows)
    empty = not rows
    if empty:
        rows = [tuple(_FILLER[f.dataType] for f in schema.fields)]
    pdf = pd.DataFrame(rows, columns=schema.names).astype(
        {f.name: _PANDAS_DTYPE[f.dataType] for f in schema.fields}
    )
    df = spark.createDataFrame(pdf, schema=schema)
    return df.limit(0) if empty else df


def id_list(ids: Set[int]) -> str:
    """``ids`` as SQL integer literals. A filter string is parsed in one JVM
    call, where ``Column.isin`` makes one per id (~0.6 ms each)."""
    return ", ".join(map(str, sorted(ids)))
