"""Shared SparkSession builder for the spark-submit entrypoints.

It names the app and turns the UI off, nothing more: a ``decompose``
call reads no session setting. Import-safe: nothing here starts a JVM
until ``get_spark()`` is called.
"""
from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """Build (or reuse) the local session for a job entrypoint."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
