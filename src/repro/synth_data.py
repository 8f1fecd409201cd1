"""The synthetic data module: the paper's graph inputs.

Synthetic stand-ins for the paper's 6 KONECT datasets plus generic
random-graph generators live in :mod:`repro.graphgen`; they are
re-exported here so callers needing "the synthetic data module" find
them too. Generators are deterministic in their seed.
"""
from pyspark.sql import DataFrame, SparkSession

from .graphgen import (  # noqa: F401
    DATASETS,
    dataset_edges,
    erdos_renyi,
    powerlaw_configuration,
    preferential_attachment,
    rmat,
    toy_edges,
)


def graph_edges(spark: SparkSession, key: str, *, scale: float | None = None) -> DataFrame:
    """Canonical Spark edge DataFrame for a KONECT stand-in dataset.

    Thin bridge from :func:`repro.graphgen.dataset_edges` (NumPy edge
    list) to the DataFrame layout the decomposition pipeline consumes.
    """
    from .graph.edges import edges_df

    return edges_df(spark, dataset_edges(key, scale))
