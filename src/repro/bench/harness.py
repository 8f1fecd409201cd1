"""Experiment harness for the five reproduced tables (DESIGN.md §5).

``table1`` … ``table5`` each return one table as ``(headers, rows)``;
``jobs/tables.py`` renders them with :func:`markdown_table`. Every timed
number comes from :func:`run_cell`, so all tables time a decomposition
the same way.
"""
import os
import platform
import time

import numpy as np

from repro.core.api import decompose, worker_count
from repro.graphgen.datasets import DATASETS, dataset_edges
from repro.graphgen.toy import toy_edges

INF = float("inf")
"""A cell's seconds when Base ran past its budget (the paper's INF)."""

# Base's seconds per cell before it is reported INF (the paper's INF was
# 4 days of C++ on the full-size graphs).
BUDGET_S = 100.0


def fmt_seconds(s: float) -> str:
    """Human-readable seconds; the paper's INF marker on budget blowout."""
    return "INF" if s == INF else f"{s:.2f}s"


def markdown_table(headers, rows) -> str:
    """Minimal GitHub-markdown table renderer for job stdout."""
    out = ["| " + " | ".join(str(x) for x in headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for r in rows:
        out.append("| " + " | ".join(str(x) for x in r) + " |")
    return "\n".join(out)


def host_line(spark) -> str:
    """Where a table ran: cores, memory, Spark and Python versions."""
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / (1 << 30)
    return (
        f"host: {os.cpu_count()} cores, {mem:.1f} GiB memory, "
        f"Spark {spark.version} ({spark.sparkContext.master}), "
        f"Python {platform.python_version()}"
    )


def warm_up(spark) -> None:
    """An untimed call, so that no timed cell carries a session's start-up."""
    decompose(spark, toy_edges(), 2, "paral")


def run_cell(
    spark, dataset: str, h: int, variant: str, *, parallelism: int | None = None,
    budget_s: float = BUDGET_S, scale: float | None = None,
):
    """One timed decomposition of a stand-in: ``(seconds, sweeps)``.

    The time is that of the ``decompose`` call, up to its lazy result
    table. ``parallelism`` plays the paper's thread-count role (DESIGN.md
    substitution 1); the default is one kernel task per task slot of
    the session, the most a call runs. Base runs serially under
    ``budget_s`` and reports ``(INF, 0)`` past it, as the paper does."""
    edges = dataset_edges(dataset, scale)
    t0 = time.monotonic()
    try:
        res = decompose(spark, edges, h, variant, parallelism=parallelism,
                        budget_s=budget_s)
    except TimeoutError:
        return INF, 0
    return time.monotonic() - t0, res.sweeps


def run_serial_iterations_cell(dataset: str, h: int, scale: float | None = None,
                               budget_s: float = BUDGET_S) -> float:
    """Sweep count of the *serial per-edge* asynchronous schedule, or
    INF once it has run past ``budget_s``, as Base is reported.

    The paper's Asyn lets every edge read values updated earlier in the
    same sweep (shared memory). The Spark variant does so within each
    kernel task; this reference runs the exact per-edge schedule
    (``repro.pyref``), which is the faithful reading of Figure 6's
    "nearly half" claim."""
    from repro.pyref import serial_hindex_decompose

    edges = [tuple(e) for e in dataset_edges(dataset, scale)]
    try:
        _, sweeps = serial_hindex_decompose(edges, h, asynchronous=True,
                                            budget_s=budget_s)
    except TimeoutError:
        return INF
    return sweeps


def table1(datasets=None, scale: float | None = None):
    """T1 — Table 1: paper |V|, |E| against the stand-in's at ``scale``
    (default: each dataset's bench scale)."""
    rows = []
    for key in datasets or DATASETS:
        spec, edges = DATASETS[key], dataset_edges(key, scale)
        rows.append((key, spec.name, spec.n_paper, spec.m_paper,
                     len(np.unique(edges)), len(edges)))
    return ["key", "dataset", "|V| paper", "|E| paper", "|V| ours", "|E| ours"], rows


def table2(spark, h_values=None):
    """T2 — Figure 3: the H-value of every toy edge after each sweep of a
    traced Paral run; order ``(0)`` is the initial h-support, and the
    last order is the converged one. Default h: 2."""
    rows = []
    for h in h_values or [2]:
        trace = decompose(spark, toy_edges(), h, variant="paral", trace=True,
                          parallelism=4).trace
        rows += [[h, f"({i})"] + frame["hval"].tolist()
                 for i, frame in enumerate(trace)]
    edges = [f"({u},{v})" for u, v in zip(trace[0]["src"], trace[0]["dst"])]
    return ["h", "n-order"] + edges, rows


def table3(spark, datasets=None, h_values=None, *, budget_s: float = BUDGET_S,
           scale: float | None = None):
    """T3 — Figure 4: wall time of Base, Paral and Paral+ per dataset and
    h. Defaults: all six stand-ins, h ∈ {2, 3}."""
    rows = []
    for d in datasets or DATASETS:
        for h in h_values or [2, 3]:
            rows.append([d, h] + [
                fmt_seconds(run_cell(spark, d, h, v, budget_s=budget_s, scale=scale)[0])
                for v in ("base", "paral", "paral+")
            ])
    return ["dataset", "h", "Base", "Paral", "Paral+"], rows


def table4(spark, datasets=None, h_values=None, parallelism=None, *,
           scale: float | None = None):
    """T4 — Figure 5: Paral wall time per parallelism and its speedup
    over the first level (1 = the paper's **Single**). A call runs at
    most ``defaultParallelism`` kernel tasks, so each row records the
    worker count it ran with. Defaults: YT, VL, GA; h=2; the powers of
    two up to ``defaultParallelism``."""
    slots = spark.sparkContext.defaultParallelism
    rows = []
    for d in datasets or ["YT", "VL", "GA"]:
        for h in h_values or [2]:
            single = None
            for p in parallelism or [1 << i for i in range(slots.bit_length())]:
                secs, _ = run_cell(spark, d, h, "paral", parallelism=p, scale=scale)
                single = single or secs
                rows.append([d, h, p, worker_count(spark.sparkContext, p),
                             fmt_seconds(secs), f"{single / secs:.2f}x"])
    return ["dataset", "h", "parallelism", "workers", "time", "speedup vs Single"], rows


def table5(spark, datasets=None, h_values=None, *, budget_s: float = BUDGET_S,
           scale: float | None = None):
    """T5 — Figure 6: sweeps of Paral and of the two Asyn schedules, the
    Spark one (in place within each kernel task) and the serial per-edge
    one (the paper's exact shared-memory semantics), which is INF past
    ``budget_s``. Defaults: all six stand-ins, h ∈ {2, 3}."""
    rows = []
    for d in datasets or DATASETS:
        for h in h_values or [2, 3]:
            paral = run_cell(spark, d, h, "paral", scale=scale)[1]
            asyn = run_cell(spark, d, h, "asyn", scale=scale)[1]
            serial = run_serial_iterations_cell(d, h, scale, budget_s)
            reduction = "—" if serial == INF else f"{paral / max(serial, 1):.2f}x"
            rows.append([d, h, paral, asyn, "INF" if serial == INF else serial,
                         reduction])
    return ["dataset", "h", "Paral sweeps", "Asyn (in-task)",
            "Asyn (per-edge)", "per-edge reduction"], rows
