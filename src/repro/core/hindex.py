"""ℋ(·) and h-hop reachable path keys as Spark SQL dataflow.

These are the two kernels of Algorithm 3. The per-edge BFS of the
paper's pseudocode becomes set-at-a-time dataflow: one bottleneck-path
dynamic program shared by *all* sources at once (instead of one BFS per
edge endpoint), and one window aggregation computing every edge's
H-index in a single shuffle.

The decomposition path does not use them: ``repro.core.paral`` runs the
numpy kernel of ``repro.core.kernel`` inside Spark tasks instead. They
stay as dataflow references of the same two kernels, tested against
``repro.pyref``, like ``repro.graph.hops`` and ``repro.graph.triads``
for the h-support.
"""
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def h_index_agg(values: DataFrame) -> DataFrame:
    """Per-edge Hirsch index of ``values`` (columns ``eid, value``):
    ``(eid, hindex)``.

    ℋ of a multiset is the largest ``y`` with at least ``y`` members
    ``>= y``; ranking each edge's values descending, that is
    ``max(min(value, rank))`` — one window + one aggregation. Edges with
    no rows are absent (ℋ(∅)=0); callers left-join and fill 0.
    """
    w = Window.partitionBy("eid").orderBy(F.col("value").desc())
    return (
        values.withColumn("rn", F.row_number().over(w))
        .groupBy("eid")
        .agg(F.max(F.least(F.col("value"), F.col("rn"))).alias("hindex"))
    )


def path_keys(adj_val: DataFrame, h: int) -> DataFrame:
    """Bottleneck path keys ``P(a, w)`` (Definition 6) for all pairs
    within ``h`` hops.

    ``adj_val`` is the symmetric adjacency annotated with the current
    H-value of each edge: columns ``a, b, hval``. The result has columns
    ``a, w, pkey`` with ``pkey = max over walks a→w of length <= h of
    min(hval of walk edges)`` — for a max-min objective walks and simple
    paths share the optimum, so ``h - 1`` cumulative relaxation rounds
    (join one more hop, keep the max) are exact.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    p = adj_val.select("a", F.col("b").alias("w"), F.col("hval").alias("pkey"))
    step = adj_val.select(
        F.col("a").alias("w"), F.col("b").alias("w2"), F.col("hval").alias("step_hval")
    )
    for _ in range(h - 1):
        grown = (
            p.join(step, on="w")
            .where(F.col("w2") != F.col("a"))
            .select(
                "a",
                F.col("w2").alias("w"),
                F.least(F.col("pkey"), F.col("step_hval")).alias("pkey"),
            )
        )
        p = (
            p.unionByName(grown)
            .groupBy("a", "w")
            .agg(F.max("pkey").alias("pkey"))
        )
    return p
