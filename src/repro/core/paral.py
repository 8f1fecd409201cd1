"""Algorithm 2 — the parallel H-index decomposition framework.

One function, four paper variants (DESIGN.md §3):

* **Paral**   — ``parallel_decompose(spark, edges, h)``: synchronous
  (Jacobi) sweeps; every sweep recomputes ``H^(n)`` for all edges from
  the ``H^(n-1)`` snapshot until nothing changes (Theorems 1-2 guarantee
  monotone convergence to ``t(e,h) - 2``).
* **Single**  — ``parallelism=1``: the same jobs over one partition, so
  one task runs at a time — the paper's one-thread configuration.
* **Asyn**    — ``asynchronous=True``: chromatic (Gauss–Seidel) sweeps.
  The edges are split into ``n_blocks`` (default 4) blocks by ascending
  initial h-support, and each block reads the values the blocks before
  it wrote in the same sweep (substitution 2 — the BSP rendering of the
  paper's asynchronous update; §4.1 proves any such mixed schedule still
  converges to the same fixpoint).
* **Paral+**  — ``pruning=True``: Lemma-4 pruning as a frontier. An edge
  is recomputed only if it has an endpoint within ``h`` hops of an
  endpoint of an edge whose value dropped in the previous sweep
  (substitution 3 — a conservative superset of the lemma's trigger set,
  so values and sweep counts are unchanged). ``repro.core.api`` runs it
  on synchronous sweeps.

Each call collects the canonical edge list on the driver, relabels the
vertices densely to ``0..n-1`` and broadcasts their CSR adjacency once.
Every pass is then one Spark job: ``mapInPandas`` over
``spark.range(m, numPartitions=parallelism)``, in which each task runs
:func:`repro.core.kernel.sweep` — the bounded bottleneck BFS and ℋ of
Algorithm 3 — for its range of edge ids, reading the H vector broadcast
for that pass. Pass 0 runs the kernel with every H-value unbounded,
which yields the h-support ``H^(0)``. The H vector lives on the driver
between passes; an edge mask (an Asyn block, the Paral+ frontier)
selects the edges a pass recomputes.
"""
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graph.edges import edge_array

from .kernel import UNBOUNDED, build_csr, frontier_mask, sweep


@dataclass
class DecomposeResult:
    """Decomposition output: the trussness table, the sweep count the
    paper's Figure 6 reports, and (in trace mode) the per-sweep H-value
    tables of Figure 3."""

    trussness: DataFrame
    sweeps: int
    trace: list[pd.DataFrame] = field(default_factory=list)


_RESULT_SCHEMA = "src long, dst long, trussness long"


def parallel_decompose(
    spark: SparkSession,
    edges,
    h: int,
    *,
    asynchronous: bool = False,
    pruning: bool = False,
    parallelism: int | None = None,
    trace: bool = False,
    max_sweeps: int = 10_000,
    n_blocks: int = 4,
) -> DecomposeResult:
    """Compute the h-trussness of every edge (columns
    ``src, dst, trussness``) with the selected variant.

    ``parallelism`` is the number of edge partitions, one task each;
    ``None`` means ``sparkContext.defaultParallelism``.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    pairs = edge_array(edges)
    if not len(pairs):
        return DecomposeResult(spark.createDataFrame([], _RESULT_SCHEMA), 0)
    vertex_ids, dense = np.unique(pairs, return_inverse=True)
    dense = dense.reshape(-1, 2)
    csr = build_csr(dense[:, 0], dense[:, 1], len(vertex_ids))
    m = csr.m
    sc = spark.sparkContext
    edge_ids = spark.range(m, numPartitions=parallelism or sc.defaultParallelism)
    graph = sc.broadcast(csr)

    def run(hval, mask=None):
        """One kernel pass: ``(eids, new values)`` of the masked edges."""
        shared = sc.broadcast((hval, mask))

        def task(batches):
            ids = [b["id"].to_numpy() for b in batches]
            if not ids:
                return
            ids = np.concatenate(ids)
            hv, mk = shared.value
            if mk is not None:
                ids = ids[mk[ids]]
            yield pd.DataFrame({"eid": ids, "hval": sweep(graph.value, hv, ids, h)})

        try:
            pdf = edge_ids.mapInPandas(task, "eid long, hval long").toPandas()
        finally:
            shared.destroy()
        return pdf["eid"].to_numpy(), pdf["hval"].to_numpy()

    try:
        # Lines 1-3: H^(0) = h-support.
        eids, sup = run(np.full(m, UNBOUNDED, dtype=np.int64))
        state = np.empty(m, dtype=np.int64)
        state[eids] = sup

        # Asynchronous (chromatic) schedule: blocks in ascending initial
        # support, so decreases propagate in peeling order within a sweep.
        blocks = [None]  # synchronous: one block of every edge
        if asynchronous:
            order = np.argsort(state, kind="stable")
            blocks = []
            for part in np.array_split(order, max(1, n_blocks)):
                if len(part):
                    block = np.zeros(m, dtype=bool)
                    block[part] = True
                    blocks.append(block)

        traces = [_trace_frame(pairs, state)] if trace else []
        frontier = None  # Paral+: edges near last sweep's drops
        sweeps = 0
        for _ in range(max_sweeps):
            drops = [np.empty(0, dtype=np.int64)]
            for block in blocks:
                mask = block
                if frontier is not None:
                    mask = frontier if block is None else block & frontier
                    if not mask.any():
                        continue
                eids, new = run(state, mask)
                drops.append(eids[new < state[eids]])
                state[eids] = new
            dropped = np.concatenate(drops)
            sweeps += 1
            if trace:
                traces.append(_trace_frame(pairs, state))
            if not len(dropped):
                break
            if pruning:
                ends = np.concatenate([csr.src[dropped], csr.dst[dropped]])
                frontier = frontier_mask(csr, ends, h)
        else:  # pragma: no cover - safety net
            raise RuntimeError("parallel decomposition did not converge")
    finally:
        graph.destroy()

    out = pd.DataFrame({"src": pairs[:, 0], "dst": pairs[:, 1],
                        "trussness": state + 2})
    return DecomposeResult(spark.createDataFrame(out, _RESULT_SCHEMA), sweeps, traces)


def _trace_frame(pairs: np.ndarray, state: np.ndarray) -> pd.DataFrame:
    """Per-edge H values of the current sweep (trace mode, Figure 3)."""
    return pd.DataFrame({"src": pairs[:, 0], "dst": pairs[:, 1],
                         "hval": state.copy()})
