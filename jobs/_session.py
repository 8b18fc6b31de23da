"""Shared SparkSession builder for the job entrypoints.

Mirrors conftest.py's settings so `python jobs/<name>.py` and the pytest
suite exercise identical Spark configurations.

``src`` goes on this process's ``sys.path`` and, before the JVM starts, on
the ``PYTHONPATH`` it hands to its Python workers: an SLen build or step
above ``DRIVER_BFS_ROWS`` rows (every Table XI build) runs in
``applyInPandas`` workers, which must import ``repro`` from a checkout with
no install.
"""
import os
import sys

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

os.environ.setdefault("SPARK_DRIVER_MEM", "24g")
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
