"""Algorithm 2 — the parallel H-index decomposition framework.

One function, four paper variants (DESIGN.md §3):

* **Paral**   — ``parallel_decompose(spark, edges, h)``: synchronous
  (Jacobi) sweeps; every sweep recomputes ``H^(n)`` for all edges from
  the ``H^(n-1)`` snapshot until nothing changes (Theorems 1-2 guarantee
  monotone convergence to ``t(e,h) - 2``).
* **Single**  — ``parallelism=1``: the same rounds with one kernel
  task — the paper's one-thread configuration.
* **Asyn**    — ``asynchronous=True``: chromatic (Gauss–Seidel) sweeps.
  The edges are split into 4 blocks by ascending initial h-support, and
  each block reads the values the blocks before it wrote in the same
  sweep (substitution 2 — the BSP rendering of the paper's asynchronous
  update; §4.1 proves any such mixed schedule still converges to the
  same fixpoint).
* **Paral+**  — ``pruning=True``: Lemma 4. A sweep recomputes only the
  edges that a drop in the sweep before crossed
  (:func:`~repro.core.kernel.frontier_mask`, substitution 3); the others
  would keep their values. ``repro.core.api`` runs it on synchronous
  sweeps.

Each call collects the canonical edge list on the driver, relabels the
vertices densely to ``0..n-1`` and builds their CSR adjacency. It then
runs one Spark job for the whole decomposition: a barrier stage of
``k`` long-lived, stateless kernel tasks, which connect back to a
listener on the driver and receive the CSR over that connection. Every
pass (pass 0, a sweep, an Asyn block) is one message round: the driver
splits the pass's edge ids into one contiguous chunk per task, sends
each task the H vector and its chunk, and gets back the chunk's new
values, computed by :func:`~repro.core.kernel.sweep` — Algorithm 3.
Pass 0 runs the kernel with every H-value unbounded, which yields the
h-support ``H^(0)``. The H vector lives on the driver between passes,
as the paper's threads share it in memory.
"""
import os
import secrets
import socket
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from multiprocessing import AuthenticationError
from multiprocessing.connection import Client, Listener, wait

import numpy as np
import pandas as pd
from pyspark import InheritableThread, SparkContext
from pyspark.sql import DataFrame, SparkSession

from repro.graph.edges import edge_array

from .kernel import UNBOUNDED, Csr, build_csr, frontier_mask, sweep


@dataclass
class SweepStats:
    """One sweep: edges recomputed, edges whose H-value dropped, seconds."""

    recomputed: int
    dropped: int
    seconds: float


@dataclass
class DecomposeResult:
    """Decomposition output: the trussness table, the sweep count the
    paper's Figure 6 reports, (in trace mode) the per-sweep H-value
    tables of Figure 3, and one :class:`SweepStats` per sweep."""

    trussness: DataFrame
    sweeps: int
    trace: list[pd.DataFrame] = field(default_factory=list)
    stats: list[SweepStats] = field(default_factory=list)


class NotConvergedError(RuntimeError):
    """``max_sweeps`` ran out before a sweep left every H-value as it was."""

    def __init__(self, sweeps: int, last: SweepStats):
        super().__init__(
            f"no fixpoint after {sweeps} sweeps; the last one lowered "
            f"{last.dropped} H-values"
        )
        self.sweeps = sweeps
        self.last = last


_RESULT_SCHEMA = "src long, dst long, trussness long"
_ASYN_BLOCKS = 4  # Asyn's blocks per sweep

# How often the driver, while it waits on the workers, checks whether
# their Spark job has ended.
_POLL_S = 0.5


def worker_count(sc: SparkContext, parallelism: int | None) -> int:
    """Kernel tasks a call runs: ``parallelism`` (``None`` means
    ``defaultParallelism``), capped at ``defaultParallelism``."""
    return min(parallelism or sc.defaultParallelism, sc.defaultParallelism)


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
) -> DecomposeResult:
    """Compute the h-trussness of every edge (columns
    ``src, dst, trussness``) with the selected variant.

    ``parallelism`` is the number of kernel tasks, each computing one
    contiguous chunk of every pass's edge ids; ``None`` means
    ``sparkContext.defaultParallelism``. The tasks form one barrier
    stage, which needs all of them running at once, so the count is
    capped at ``defaultParallelism`` (the task slots of a local master)
    and at the number of edges.

    Raises :class:`NotConvergedError` if ``max_sweeps`` sweeps leave
    some H-value still changing.
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
    k = min(worker_count(spark.sparkContext, parallelism), m)

    with _kernel_workers(spark.sparkContext, csr, h, k) as run:
        # Lines 1-3: H^(0) = h-support.
        every = np.arange(m)
        state = run(np.full(m, UNBOUNDED, dtype=np.int64), every)

        # Asynchronous (chromatic) schedule: blocks in ascending initial
        # support, so decreases propagate in peeling order within a sweep.
        blocks = [every]
        if asynchronous:
            order = np.argsort(state, kind="stable")
            blocks = [np.sort(b) for b in np.array_split(order, _ASYN_BLOCKS)]

        traces = [_trace_frame(pairs, state)] if trace else []
        stats = []
        frontier = None  # Paral+: the edges the last sweep's drops may lower
        for _ in range(max_sweeps):
            start, old = time.perf_counter(), state.copy()
            passes = [b if frontier is None else b[frontier[b]] for b in blocks]
            for eids in passes:
                if len(eids):
                    state[eids] = run(state, eids)
            dropped = int(np.count_nonzero(state < old))
            if pruning:
                frontier = frontier_mask(csr, old, state, h)
            stats.append(SweepStats(sum(map(len, passes)), dropped,
                                    time.perf_counter() - start))
            if trace:
                traces.append(_trace_frame(pairs, state))
            if not dropped:
                break
        else:
            raise NotConvergedError(len(stats), stats[-1])

        # The tasks end while the driver builds the table.
        run(None)
        out = pd.DataFrame({"src": pairs[:, 0], "dst": pairs[:, 1],
                            "trussness": state + 2})
        table = spark.createDataFrame(out, _RESULT_SCHEMA)
    return DecomposeResult(table, len(stats), traces, stats)


@contextmanager
def _kernel_workers(sc: SparkContext, csr: Csr, h: int, k: int):
    """Run :func:`sweep` over ``csr`` in ``k`` stateless Spark tasks that
    live as long as the ``with`` block.

    Yields ``run(hval, eids)``, one message round: task ``i`` gets the H
    vector and the ``i``-th of ``k`` contiguous chunks of ``eids``, and
    ``run`` returns their new values aligned to ``eids``. ``run(None)``
    releases the tasks. The tasks form one barrier job, launched from an
    :class:`~pyspark.InheritableThread` so the caller's job group covers
    it; they connect back to a listener on ``spark.driver.host`` that
    admits only holders of a fresh per-call key, and receive the CSR. If
    the job fails, the waiting driver raises its error. On leaving the
    block the connections are closed (a task not yet released exits on
    EOF), then the listener, and the job thread is joined.
    """
    # Both ends unpickle what they receive: only holders of this key may
    # connect.
    authkey = secrets.token_bytes(32)
    listener = Listener((sc.getConf().get("spark.driver.host"), 0),
                        backlog=k, authkey=authkey)
    address = listener.address

    def serve(_):
        with Client(address, authkey=authkey) as conn, suppress(EOFError):
            _no_delay(conn)
            graph = conn.recv()
            # EOF: the driver gave up on the call and closed the connection.
            while (msg := conn.recv()) is not None:
                hval, eids = msg
                conn.send(sweep(graph, hval, eids, h))
        return iter(())

    failure, done = [], threading.Event()

    def job():
        try:
            sc.parallelize(range(k), k).barrier().mapPartitions(serve).collect()
        except Exception as exc:
            failure.append(exc)
        finally:
            done.set()
            # Wake the driver if it is blocked in accept.
            with suppress(OSError):
                socket.create_connection(address, timeout=_POLL_S).close()

    conns = []

    def close():
        for conn in conns:
            conn.close()
        # Closed before the join, so no late task can connect and wait.
        listener.close()
        if thread.ident is not None:
            thread.join()

    def lost():
        """The job ended while the driver waited on it: raise its error."""
        close()
        if failure:
            raise failure[0]
        raise RuntimeError("the kernel tasks exited before the call ended")

    def send(msgs):
        try:
            for conn, msg in zip(conns, msgs):
                conn.send(msg)
        except OSError:
            lost()

    def run(hval, eids=None):
        if hval is None:
            return send([None] * k)
        send((hval, chunk) for chunk in np.array_split(eids, k))
        replies = {}
        while len(replies) < k:
            ready = wait([c for c in conns if c not in replies], timeout=_POLL_S)
            if not ready and done.is_set():
                lost()
            for conn in ready:
                try:
                    replies[conn] = conn.recv()
                except (EOFError, OSError):
                    lost()
        return np.concatenate([replies[conn] for conn in conns])

    thread = InheritableThread(target=job, daemon=True)
    try:
        thread.start()
        while len(conns) < k:
            try:
                conns.append(_no_delay(listener.accept()))
            except (AuthenticationError, EOFError, OSError):
                pass  # not a kernel task, or the job's wake-up call: dropped
            if done.is_set():
                lost()
        send([csr] * k)
        yield run
    finally:
        close()


def _no_delay(conn):
    """``conn`` with Nagle's algorithm off. A message over 16 KiB goes
    out as two writes, and with Nagle on, the second waits for the
    peer's delayed ACK of the first: 40 ms a round on Linux, more than
    a sweep of the kernel on a graph of a few thousand edges."""
    with socket.socket(fileno=os.dup(conn.fileno())) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def _trace_frame(pairs: np.ndarray, state: np.ndarray) -> pd.DataFrame:
    """Per-edge H values of the current sweep (trace mode, Figure 3)."""
    return pd.DataFrame({"src": pairs[:, 0], "dst": pairs[:, 1],
                         "hval": state.copy()})
