"""One front door for all five paper algorithms.

``decompose(spark, edges, h, variant=...)`` dispatches to:

========  =====================================================
variant   meaning (paper Section 5.1)
========  =====================================================
base      Algorithm 1 serial peeling (driver-side Python)
single    Paral at parallelism 1 (the 1-thread run)
paral     synchronous parallel framework (Algorithm 2)
asyn      Paral + asynchronous (chromatic) update
paral+    Paral + Lemma-4 pruning (paper: Asyn + pruning)
========  =====================================================

Every variant returns a :class:`repro.core.paral.DecomposeResult` whose
``trussness`` is a Spark DataFrame ``(src, dst, trussness)`` so results
are interchangeable in tests and benchmarks (Base's dict is lifted into
a DataFrame; its sweep count is reported as 0 — peeling has no sweeps).
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro.graph.edges import edge_array

from .baseline import baseline_decompose
from .paral import DecomposeResult, parallel_decompose

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
    """Compute h-trussness with the chosen paper variant (see module doc)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    if variant == "base":
        res = baseline_decompose(_as_edge_list(edges), h, budget_s=budget_s)
        if res.timed_out:
            raise TimeoutError(f"Base exceeded budget of {budget_s}s (paper: INF)")
        pdf = pd.DataFrame(
            [(u, v, t) for (u, v), t in sorted(res.trussness.items())],
            columns=["src", "dst", "trussness"],
        )
        return DecomposeResult(spark.createDataFrame(pdf), 0)
    kwargs = dict(parallelism=parallelism, trace=trace)
    if variant == "single":
        kwargs["parallelism"] = 1
    elif variant == "asyn":
        kwargs["asynchronous"] = True  # 4 chromatic blocks
    elif variant == "paral+":
        # Lemma-4 pruning on synchronous sweeps; Asyn
        # (4 chromatic blocks) carries the iteration-count experiment of
        # Figure 6. The paper's Paral+ is Asyn + pruning: that waits on
        # partition-local asynchrony in the kernel (ROADMAP, "Faithful
        # asynchrony"). Deviation documented in DESIGN.md §3.
        kwargs.update(pruning=True)
    return parallel_decompose(spark, edges, h, **kwargs)


def _as_edge_list(edges):
    """Any accepted edge input as a canonical list of int pairs."""
    return [tuple(e) for e in edge_array(edges).tolist()]
