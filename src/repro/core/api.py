"""The one way to run a decomposition: ``decompose(spark, edges, h, variant)``.

========  =====================================================
variant   meaning (paper Section 5.1)
========  =====================================================
base      Algorithm 1 serial peeling (driver-side Python)
single    Paral at parallelism 1 (the 1-thread run)
paral     synchronous parallel framework (Algorithm 2)
asyn      Paral + asynchronous update (in place within each task)
paral+    Asyn + Lemma-4 pruning
========  =====================================================

Base is :func:`repro.core.baseline.baseline_decompose`; the other four
are :func:`repro.core.paral.iterate`. Every variant returns a
:class:`repro.core.paral.DecomposeResult` whose ``trussness`` is a Spark
DataFrame ``(src, dst, trussness)``, so results are interchangeable in
tests and tables (Base's dict is lifted into a DataFrame, with no sweep
stats — peeling has no sweeps).
"""
from pyspark.sql import SparkSession

from repro.graph.edges import edge_array

from .baseline import baseline_decompose
from .paral import DecomposeResult, iterate, result_table

VARIANTS = ("base", "single", "paral", "asyn", "paral+")


def decompose(
    spark: SparkSession,
    edges,
    h: int,
    variant: str = "paral",
    *,
    parallelism: int | None = None,
    trace: bool = False,
    budget_s: float | None = None,
) -> DecomposeResult:
    """Compute h-trussness with the chosen paper variant (see module doc).

    ``parallelism`` (kernel tasks) and ``trace`` (per-sweep H-values)
    apply to the sweeping variants; ``budget_s`` to Base, which raises
    :class:`TimeoutError` past it (the paper's INF)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if variant != "base":
        return iterate(spark, edges, h, variant, parallelism=parallelism,
                       trace=trace)
    pairs = edge_array(edges)
    trussness = baseline_decompose(pairs, h, budget_s)
    return DecomposeResult(result_table(
        spark, pairs, [trussness[u, v] for u, v in pairs.tolist()]))
