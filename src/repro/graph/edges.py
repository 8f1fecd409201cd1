"""Canonical edge / adjacency DataFrames.

Conventions used across the whole reproduction:

* ``edges``: columns ``src:long, dst:long, eid:long`` with ``src < dst``,
  self-loops dropped, duplicates (either orientation) collapsed;
  ``eid = src << 32 | dst`` is a collision-free 64-bit edge id (vertex
  ids must fit in 32 bits — checked for every input form).
* ``adjacency``: the symmetric closure, columns ``a:long, b:long,
  eid:long`` — one row per direction per edge.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

_MAX_VERTEX = (1 << 32) - 1
_TOO_BIG = "vertex ids must fit in 32 bits for eid packing"


def _endpoints(edges: DataFrame) -> DataFrame:
    """The first two columns of a Spark edge table as ``u, v: long``."""
    c0, c1 = edges.columns[:2]
    return edges.select(
        F.col(c0).cast("long").alias("u"), F.col(c1).cast("long").alias("v")
    )


def _local_array(edges) -> np.ndarray:
    """An ``(m, 2)`` int64 array from a pair list, ndarray or pandas frame."""
    if isinstance(edges, pd.DataFrame):
        arr = edges.iloc[:, :2].to_numpy()
    else:
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    return arr.reshape(-1, 2).astype(np.int64)


def edge_array(edges) -> np.ndarray:
    """The canonical edge list as a sorted ``(m, 2)`` int64 array of
    ``(src, dst)`` rows with ``src < dst``, from any input
    :func:`edges_df` accepts. A Spark DataFrame is collected to the
    driver (one Spark job); vertex ids may use all 64 bits.
    """
    if isinstance(edges, DataFrame):
        arr = _endpoints(edges).dropna().toPandas().to_numpy(dtype=np.int64)
    else:
        arr = _local_array(edges)
    arr = arr[arr[:, 0] != arr[:, 1]]
    return np.unique(np.sort(arr, axis=1), axis=0)


def edges_df(spark: SparkSession, edges) -> DataFrame:
    """Build the canonical edge DataFrame from an edge list.

    ``edges`` may be a list of ``(u, v)`` pairs, an ``(m, 2)`` ndarray, a
    pandas DataFrame with two columns, or an existing Spark DataFrame
    whose first two columns are the endpoints. Canonicalization happens
    in the dataflow, so an uncanonical Spark input is fine.
    """
    if isinstance(edges, DataFrame):
        raw = _endpoints(edges)
        # Checked inside the plan, so the check costs no Spark job.
        raw = raw.select(
            F.when(F.greatest("u", "v") > _MAX_VERTEX, F.raise_error(F.lit(_TOO_BIG)))
            .otherwise(F.col("u"))
            .alias("u"),
            "v",
        )
    else:
        arr = _local_array(edges)
        if len(arr) and arr.max() > _MAX_VERTEX:
            raise ValueError(_TOO_BIG)
        raw = spark.createDataFrame(
            pd.DataFrame({"u": arr[:, 0], "v": arr[:, 1]}),
            schema="u long, v long",  # explicit: inference fails on empty input
        )
    return (
        raw.where(F.col("u") != F.col("v"))
        .select(
            F.least("u", "v").alias("src"),
            F.greatest("u", "v").alias("dst"),
        )
        .distinct()
        .withColumn("eid", F.expr("shiftleft(src, 32) + dst"))
    )


def adjacency_df(edges: DataFrame) -> DataFrame:
    """Symmetric adjacency ``(a, b, eid)``: one row per edge direction."""
    fwd = edges.select(F.col("src").alias("a"), F.col("dst").alias("b"), "eid")
    rev = edges.select(F.col("dst").alias("a"), F.col("src").alias("b"), "eid")
    return fwd.unionByName(rev)


def degrees_df(edges: DataFrame) -> DataFrame:
    """Vertex degrees ``(v, degree)`` from the canonical edge table."""
    return (
        adjacency_df(edges)
        .groupBy(F.col("a").alias("v"))
        .agg(F.count("*").alias("degree"))
    )
