"""Shared SparkSession builder for the spark-submit entrypoints.

Mirrors the test fixture's config (Arrow on, broadcast joins off) so a
job run and a pytest run exercise the same plans. Import-safe: nothing
here starts a JVM until ``get_spark()`` is called.
"""
from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """Build (or reuse) the local session for a job entrypoint."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
