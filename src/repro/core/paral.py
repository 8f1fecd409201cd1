"""Algorithm 2 — the parallel H-index decomposition framework.

One function, four paper variants (DESIGN.md §3):

* **Paral**   — ``parallel_decompose(spark, edges, h)``: synchronous
  (Jacobi) sweeps; every sweep recomputes ``H^(n)`` for all edges from
  the ``H^(n-1)`` snapshot until nothing changes (Theorems 1-2 guarantee
  monotone convergence to ``t(e,h) - 2``).
* **Single**  — ``parallelism=1``: the same rounds with one kernel
  task — the paper's one-thread configuration.
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
It then runs one Spark job for the whole decomposition: a barrier stage
of ``k`` long-lived tasks, each owning a contiguous range of edge ids,
which connect back to a listener on the driver. Every pass is one
message round with them: the driver sends the H vector and an edge mask
(an Asyn block, the Paral+ frontier) to every task, and each task
returns the new values of its masked edges, computed by
:func:`repro.core.kernel.sweep` — the bounded bottleneck BFS and ℋ of
Algorithm 3. Pass 0 runs the kernel with every H-value unbounded, which
yields the h-support ``H^(0)``. The H vector lives on the driver between
passes, as the paper's threads share it in memory.
"""
import os
import secrets
import socket
import threading
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
class DecomposeResult:
    """Decomposition output: the trussness table, the sweep count the
    paper's Figure 6 reports, and (in trace mode) the per-sweep H-value
    tables of Figure 3."""

    trussness: DataFrame
    sweeps: int
    trace: list[pd.DataFrame] = field(default_factory=list)


class NotConvergedError(RuntimeError):
    """``max_sweeps`` ran out before a sweep left every H-value as it was."""

    def __init__(self, sweeps: int, changed: int):
        super().__init__(
            f"no fixpoint after {sweeps} sweeps; the last one changed "
            f"{changed} edges"
        )
        self.sweeps = sweeps
        self.changed = changed


_RESULT_SCHEMA = "src long, dst long, trussness long"

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
    n_blocks: int = 4,
) -> DecomposeResult:
    """Compute the h-trussness of every edge (columns
    ``src, dst, trussness``) with the selected variant.

    ``parallelism`` is the number of kernel tasks, each owning a
    contiguous range of edge ids; ``None`` means
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
        else:
            raise NotConvergedError(sweeps, len(dropped))

    out = pd.DataFrame({"src": pairs[:, 0], "dst": pairs[:, 1],
                        "trussness": state + 2})
    return DecomposeResult(spark.createDataFrame(out, _RESULT_SCHEMA), sweeps, traces)


@contextmanager
def _kernel_workers(sc: SparkContext, csr: Csr, h: int, k: int):
    """Run :func:`sweep` in ``k`` Spark tasks that live as long as the
    ``with`` block.

    Yields ``run(hval, mask=None)``, one message round: every task gets
    the H vector and the edge mask (``None``: every edge), recomputes
    its masked edges and sends back ``(eids, values)``; ``run`` returns
    them concatenated. The tasks form one barrier job, launched from an
    :class:`~pyspark.InheritableThread` so the caller's job group covers
    it, and connect back to a listener on ``spark.driver.host`` that
    admits only holders of a fresh per-call key. If the job fails, the
    waiting driver raises its error. On leaving the block the tasks are
    released (``None``) or, on an error, their connections closed, and
    the listener and the job are gone when it returns.
    """
    bounds = np.arange(k + 1) * csr.m // k
    # Both ends unpickle what they receive: only holders of this key may
    # connect.
    authkey = secrets.token_bytes(32)
    graph = sc.broadcast(csr)
    listener = Listener((sc.getConf().get("spark.driver.host"), 0),
                        backlog=k, authkey=authkey)
    address = listener.address

    def serve(index, _):
        ids = np.arange(bounds[index], bounds[index + 1])
        with Client(address, authkey=authkey) as conn, suppress(EOFError):
            _no_delay(conn)
            # EOF: the driver gave up on the call and closed the connection.
            while (msg := conn.recv()) is not None:
                hval, mask = msg
                mine = ids if mask is None else ids[mask[ids]]
                conn.send((mine, sweep(graph.value, hval, mine, h)))
        return iter(())

    failure, done = [], threading.Event()

    def job():
        try:
            sc.parallelize(range(k), k).barrier().mapPartitionsWithIndex(
                serve).collect()
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

    def run(hval, mask=None):
        try:
            for conn in conns:
                conn.send((hval, mask))
        except OSError:
            lost()
        replies, pending = [], list(conns)
        while pending:
            ready = wait(pending, timeout=_POLL_S)
            if not ready and done.is_set():
                lost()
            for conn in ready:
                try:
                    replies.append(conn.recv())
                except (EOFError, OSError):
                    lost()
                pending.remove(conn)
        eids, values = zip(*replies)
        return np.concatenate(eids), np.concatenate(values)

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
        yield run
        for conn in conns:
            conn.send(None)
    finally:
        close()
        graph.destroy()


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
