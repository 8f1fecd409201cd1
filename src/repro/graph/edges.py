"""Canonical edges: :func:`edge_array` as a numpy ``(m, 2)`` array, the
input of every decomposition, and :func:`edges_df` /
:func:`adjacency_df` as the DataFrames of the dataflow reference layers.

* ``edges``: ``src < dst``, self-loops dropped, duplicates (either
  orientation) collapsed, rows sorted. The DataFrame adds ``eid``, the
  row's index in :func:`edge_array`: the numbering the kernel uses, so
  vertex ids may use all 64 bits.
* ``adjacency``: the symmetric closure, columns ``a:long, b:long,
  eid:long`` — one row per direction per edge.
"""
from numbers import Integral

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import IntegralType


def _endpoints(edges: DataFrame) -> DataFrame:
    """The two integer columns of a Spark edge table as ``u, v``."""
    if len(edges.columns) != 2:
        raise ValueError(f"an edge table has 2 columns, got {edges.columns}")
    for f in edges.schema.fields:
        if not isinstance(f.dataType, IntegralType):
            raise ValueError(f"vertex ids must be integers; column {f.name!r} "
                             f"is {f.dataType.simpleString()}")
    return edges.toDF("u", "v")


def _local_array(edges) -> np.ndarray:
    """An ``(m, 2)`` int64 array from a pair list, ndarray or pandas
    frame, or a :class:`ValueError` if ``edges`` is not ``m`` pairs of
    int64 ids (an empty input is the empty graph)."""
    raw = (edges.to_numpy() if isinstance(edges, pd.DataFrame)
           else edges if isinstance(edges, np.ndarray) else list(edges))
    arr = np.asarray(raw)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {arr.shape}")
    ints = np.issubdtype(arr.dtype, np.integer)
    if arr.dtype.kind in "fO":
        # numpy reads Python ints beyond int64 as float64 or object.
        ids = np.asarray(raw, dtype=object)
        ints = all(isinstance(x, Integral) for x in ids.flat)
        arr = ids if ints else arr
    if not ints:
        raise ValueError(f"vertex ids must be integers, got {arr.dtype} "
                         "(a Spark table with null ids reads as float64)")
    if not np.can_cast(arr.dtype, np.int64):
        int64 = np.iinfo(np.int64)
        for x in (int(arr.min()), int(arr.max())):
            if not int64.min <= x <= int64.max:
                raise ValueError(f"vertex ids must fit in int64, got {x}")
    return arr.astype(np.int64)


def edge_array(edges) -> np.ndarray:
    """The canonical edge list as a sorted ``(m, 2)`` int64 array of
    ``(src, dst)`` rows with ``src < dst``.

    ``edges`` may be a list of ``(u, v)`` pairs, an ``(m, 2)`` ndarray, a
    pandas DataFrame with two columns, or a Spark DataFrame with two
    integer columns; a Spark DataFrame is collected to the driver through
    Arrow (one Spark job). Any other shape, and ids that are null, not
    integers or outside int64, raise :class:`ValueError`.
    """
    if isinstance(edges, DataFrame):
        edges = _endpoints(edges).toArrow().to_pandas()
    arr = _local_array(edges)
    arr = np.sort(arr[arr[:, 0] != arr[:, 1]], axis=1)
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]  # np.unique(axis=0): ~4x slower
    dup = (arr[1:] == arr[:-1]).all(axis=1)
    return np.delete(arr, np.flatnonzero(dup) + 1, axis=0)


def edges_df(spark: SparkSession, edges) -> DataFrame:
    """:func:`edge_array` of ``edges`` as a DataFrame ``(src, dst, eid)``
    with ``eid`` the row index."""
    arr = edge_array(edges)
    return spark.createDataFrame(pa.table(
        {"src": arr[:, 0], "dst": arr[:, 1], "eid": np.arange(len(arr))}))


def adjacency_df(edges: DataFrame) -> DataFrame:
    """Symmetric adjacency ``(a, b, eid)``: one row per edge direction."""
    fwd = edges.select(F.col("src").alias("a"), F.col("dst").alias("b"), "eid")
    rev = edges.select(F.col("dst").alias("a"), F.col("src").alias("b"), "eid")
    return fwd.unionByName(rev)
