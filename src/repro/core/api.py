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

:func:`decompose` alone reads raw edges. It builds one CSR, and every
variant works on it and its edge ids: Base peels it in
:func:`repro.core.baseline.baseline_decompose`; the other four run
:func:`repro.core.paral.schedule` over it, in the kernel tasks of
:func:`repro.core.paral.kernel_workers`. Every variant returns a
:class:`DecomposeResult` whose ``trussness`` is a Spark DataFrame
``(src, dst, trussness)``, so results are interchangeable in tests and
tables (Base's has no sweep stats). Edges and results cross the Spark
boundary through Arrow alone: a call reads no session setting.
"""
import time
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark import SparkContext
from pyspark.sql import DataFrame, SparkSession

from repro.graph.edges import edge_array

from .baseline import baseline_decompose
from .kernel import build_csr
from .paral import SweepStats, kernel_workers, schedule

VARIANTS = ("base", "single", "paral", "asyn", "paral+")


@dataclass
class DecomposeResult:
    """Decomposition output: the trussness table, (in trace mode) the
    per-sweep H-value tables of Figure 3, and one :class:`SweepStats`
    per sweep.

    ``launch_s`` is the seconds from the start of the call's Spark job
    until every kernel task holds the CSR, and ``support_s`` the seconds
    of pass 0, the h-support round. Both are 0.0 for Base."""

    trussness: DataFrame
    trace: list[pd.DataFrame] = field(default_factory=list)
    stats: list[SweepStats] = field(default_factory=list)
    launch_s: float = 0.0
    support_s: float = 0.0

    @property
    def sweeps(self) -> int:
        """The sweep count the paper's Figure 6 reports; 0 for Base."""
        return len(self.stats)


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

    ``parallelism`` (kernel tasks, each owning a range of the edges; see
    :func:`worker_count`) and ``trace`` (per-sweep H-values) apply to
    the sweeping variants, and ``single`` runs one task; ``budget_s``
    applies to Base, which raises :class:`TimeoutError` past it (the
    paper's INF). Raises :class:`ValueError`, before any Spark job, for
    an unknown variant, for ``h`` other than an integer >= 1, for
    ``parallelism`` other than ``None`` or an integer >= 1 and for
    ``budget_s`` other than ``None`` or a number >= 0 (a bool is
    neither), and
    :class:`~repro.core.paral.NotConvergedError` if the sweeps reach no
    fixpoint within :data:`~repro.core.paral.MAX_SWEEPS`."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    if not _at_least(h, Integral, 1):
        raise ValueError(f"h must be an integer >= 1, got {h!r}")
    if parallelism is not None and not _at_least(parallelism, Integral, 1):
        raise ValueError(
            f"parallelism must be None or an integer >= 1, got {parallelism!r}")
    if budget_s is not None and not _at_least(budget_s, Real, 0):
        raise ValueError(f"budget_s must be None or a number >= 0, got {budget_s!r}")
    pairs = edge_array(edges)
    if not len(pairs):
        return DecomposeResult(_result_table(spark, pairs, []))
    csr = build_csr(pairs)
    if variant == "base":
        return DecomposeResult(_result_table(
            spark, pairs, baseline_decompose(csr, h, budget_s)))

    sc = spark.sparkContext
    k = 1 if variant == "single" else min(worker_count(sc, parallelism), csr.m)
    traces = []
    start = time.perf_counter()
    with kernel_workers(spark, csr, h, variant, k) as run:
        launch_s = time.perf_counter() - start
        for state, stats in schedule(csr.m, run):
            if not stats:
                support_s = time.perf_counter() - start - launch_s
            if trace:
                traces.append(pd.DataFrame(
                    {"src": pairs[:, 0], "dst": pairs[:, 1], "hval": state}))
        # The tasks end on EOF while the driver builds the table.
        run(None)
        table = _result_table(spark, pairs, state + 2)
    return DecomposeResult(table, traces, stats, launch_s, support_s)


def _at_least(x, kind, low) -> bool:
    """Whether ``x`` is a ``kind`` of number >= ``low``. A bool, though
    ``Integral``, is not, as :func:`~repro.graph.edges.edge_array` takes
    no bool ids; nor is NaN, which fails the comparison."""
    return isinstance(x, kind) and not isinstance(x, bool) and x >= low


def worker_count(sc: SparkContext, parallelism: int | None) -> int:
    """Kernel tasks a call runs on a graph of enough edges:
    ``parallelism`` (``None`` means ``defaultParallelism``), capped at
    ``defaultParallelism``, the task slots a barrier job needs at once."""
    return min(parallelism or sc.defaultParallelism, sc.defaultParallelism)


def _result_table(spark: SparkSession, pairs: np.ndarray, trussness) -> DataFrame:
    """The ``(src, dst, trussness)`` table of the ``(m, 2)`` edges
    ``pairs``, every column ``bigint``, built through Arrow."""
    return spark.createDataFrame(pa.table({
        "src": pairs[:, 0], "dst": pairs[:, 1],
        "trussness": np.asarray(trussness, dtype=np.int64)}))
