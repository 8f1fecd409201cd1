"""Experiment harness for the five reproduced tables (DESIGN.md §5).

Each ``run_*_cell`` function produces one cell/row of a table and is
what both the ``jobs/`` entrypoints (full tables) and the
``benchmarks/`` pytest-benchmark targets (timed cells) call, so the
numbers in EXPERIMENTS.md and bench_output.txt come from the same code.
"""
import time

from repro.core.api import decompose
from repro.core.baseline import INF, baseline_decompose
from repro.graphgen.datasets import DATASETS, dataset_edges
from repro.graphgen.toy import toy_edges


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


def table1_rows(scale: float | None = None):
    """T1 — dataset statistics: (key, name, paper |V|, paper |E|,
    stand-in |V|, stand-in |E|) per dataset at the given scale."""
    rows = []
    for key, spec in DATASETS.items():
        edges = dataset_edges(key, scale)
        n = len({int(v) for e in edges for v in e})
        rows.append((key, spec.name, spec.n_paper, spec.m_paper, n, len(edges)))
    return rows


def table2_trace(spark, h: int = 2):
    """T2 — Figure 3: per-sweep H-values of every toy edge.

    Returns ``(trace_frames, sweeps)``; frame ``i`` holds the paper's
    ``(i)-order`` row (frame 0 = initial h-support)."""
    res = decompose(spark, toy_edges(), h, variant="paral", trace=True, parallelism=4)
    return res.trace, res.sweeps


def run_efficiency_cell(
    spark, dataset: str, h: int, algorithm: str, *, budget_s: float = 300.0,
    scale: float | None = None,
):
    """T3 — Figure 4: one (dataset, h, algorithm) wall-clock cell.

    Returns ``(seconds, sweeps)``; ``seconds == INF`` when Base blows the
    budget (paper convention, theirs was 4 days)."""
    edges = dataset_edges(dataset, scale)
    if algorithm == "base":
        res = baseline_decompose([tuple(e) for e in edges], h, budget_s=budget_s)
        return res.seconds, 0
    t0 = time.monotonic()
    # parallelism=16 mirrors the paper's 20-thread default; the call caps
    # it at the session's task slots (parallel_decompose).
    res = decompose(spark, edges, h, variant=algorithm, parallelism=16)
    res.trussness.count()  # materialize — the decompose loop already ran eagerly
    return time.monotonic() - t0, res.sweeps


def run_speedup_cell(spark, dataset: str, h: int, parallelism: int,
                     scale: float | None = None):
    """T4 — Figure 5: Paral wall time at a given parallelism.

    ``parallelism`` plays the paper's thread-count role (DESIGN.md
    substitution 1); 1 is the paper's **Single**."""
    edges = dataset_edges(dataset, scale)
    t0 = time.monotonic()
    res = decompose(spark, edges, h, variant="paral", parallelism=parallelism)
    res.trussness.count()
    return time.monotonic() - t0, res.sweeps


def run_iterations_cell(spark, dataset: str, h: int, algorithm: str,
                        scale: float | None = None):
    """T5 — Figure 6: sweep count of Paral vs Asyn on one dataset."""
    edges = dataset_edges(dataset, scale)
    res = decompose(spark, edges, h, variant=algorithm, parallelism=16)
    res.trussness.count()
    return res.sweeps


def run_serial_iterations_cell(dataset: str, h: int, asynchronous: bool,
                               scale: float | None = None) -> int:
    """T5 companion: sweep count of the *serial per-edge* schedule.

    The paper's Asyn lets every edge read values updated earlier in the
    same sweep (shared memory). The Spark variant approximates that with
    chromatic blocks; this reference runs the exact per-edge schedule
    (``repro.pyref``), which is the faithful reading of Figure 6's
    "nearly half" claim."""
    from repro.pyref import serial_hindex_decompose

    edges = [tuple(e) for e in dataset_edges(dataset, scale)]
    _, sweeps = serial_hindex_decompose(edges, h, asynchronous=asynchronous)
    return sweeps
