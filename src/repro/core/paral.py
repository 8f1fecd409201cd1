"""Algorithm 2 — the parallel H-index decomposition framework.

:func:`iterate` runs four of the paper's variants, named as
:func:`repro.core.api.decompose` names them (DESIGN.md §3):

* ``paral``  — synchronous (Jacobi) sweeps; every sweep recomputes
  ``H^(n)`` for all edges from the ``H^(n-1)`` snapshot until nothing
  changes (Theorems 1-2 guarantee monotone convergence to
  ``t(e,h) - 2``).
* ``single`` — the same sweeps with one kernel task, the paper's
  one-thread configuration.
* ``asyn``   — asynchronous sweeps (§4.3). Each task updates its own
  edges in place, in :data:`_ASYN_BLOCKS` sub-blocks by ascending
  ``H^(0)``, so every sub-block reads the values written before it in
  the same sweep: Gauss–Seidel within a task, Jacobi between tasks
  (substitution 2). §4.1 proves any such mixed schedule converges to
  the same fixpoint.
* ``paral+`` — Asyn with Lemma 4's pruning, as in the paper. A sweep
  recomputes only the edges that a drop in the sweep before crossed
  (:func:`~repro.core.kernel.frontier_mask` of the sweep's start and
  end vectors, substitution 3); the others would keep their values.

Each call collects the canonical edge list on the driver, relabels the
vertices densely to ``0..n-1`` and builds their CSR adjacency. It then
runs one Spark job for the whole decomposition: a barrier stage of
``k`` long-lived, stateless kernel tasks, which connect back to a
listener on the driver and receive the CSR over that connection. Task
``i`` owns the ``i``-th range of :func:`owned_edges`, fixed for the
call. Every pass (pass 0, then one per sweep) is one message round: the
driver sends each task the H vector and its edges as a list of
sub-blocks, and the task returns their new values, each sub-block
computed by :func:`~repro.core.kernel.sweep` — Algorithm 3 — over its
copy of H after the sub-blocks before it were written. Pass 0 runs the
kernel with every H-value unbounded and one block per task, which
yields the h-support ``H^(0)``. The H vector lives on the driver
between passes, as the paper's threads share it in memory.

Each task first calls :func:`_skip_unchanged_zip_rereads`, so that the
later tasks of its PySpark worker start without re-reading the zip
archives on ``sys.path``; that cut the launch, until every task holds
the CSR, from about 0.3 s to 0.07-0.09 s on a 4-core host (DESIGN.md §3,
"per-call floor"). :class:`DecomposeResult` reports the launch and pass
0 as ``launch_s`` and ``support_s``.
"""
import os
import secrets
import socket
import threading
import time
import zipimport
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from multiprocessing import AuthenticationError
from multiprocessing.connection import Client, Listener, wait

import numpy as np
import pandas as pd
from pyspark import InheritableThread, SparkContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.graph.edges import edge_array

from .kernel import UNBOUNDED, Csr, build_csr, frontier_mask, sweep


@dataclass
class SweepStats:
    """One sweep, a message round in which each task recomputes each of
    its edges once (Paral+: those in the frontier): edges recomputed,
    edges whose H-value dropped, seconds."""

    recomputed: int
    dropped: int
    seconds: float


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


class NotConvergedError(RuntimeError):
    """:data:`MAX_SWEEPS` sweeps ran out before one left every H-value
    as it was."""

    def __init__(self, sweeps: int, last: SweepStats):
        super().__init__(
            f"no fixpoint after {sweeps} sweeps; the last one lowered "
            f"{last.dropped} H-values"
        )
        self.sweeps = sweeps
        self.last = last


# Built once: a DDL string would be parsed in the JVM on every call.
RESULT_SCHEMA = StructType([StructField(name, LongType())
                            for name in ("src", "dst", "trussness")])
_ASYN_BLOCKS = 4  # sub-blocks per task in Asyn and Paral+

# Sweeps a call runs before it raises NotConvergedError.
MAX_SWEEPS = 10_000

# How often the driver, while it waits on the workers, checks whether
# their Spark job has ended.
_POLL_S = 0.5


def worker_count(sc: SparkContext, parallelism: int | None) -> int:
    """Kernel tasks a call runs: ``parallelism`` (``None`` means
    ``defaultParallelism``), capped at ``defaultParallelism``."""
    return min(parallelism or sc.defaultParallelism, sc.defaultParallelism)


def owned_edges(csr: Csr, k: int) -> list[np.ndarray]:
    """The edge ids each of ``k`` tasks owns, ``1 <= k <= csr.m``: ``k``
    non-empty contiguous ranges of the edges sorted for locality and cut
    at equal work.

    Vertices are ranked by degree, descending, ties by id, and edges
    sorted by ``(lower rank, higher rank)``, so a task's edges share
    endpoints. An edge's work is ``nd[u] + nd[v]``, where ``nd`` is the
    sum of a vertex's neighbour degrees: the 2-hop walks
    :func:`~repro.core.kernel.sweep` expands from it. A cut at equal
    edge counts puts the hub edges in one task and doubles its kernel
    time on a power-law graph.
    """
    deg = np.diff(csr.indptr)
    nd = np.bincount(np.repeat(np.arange(csr.n), deg), weights=deg[csr.nbr],
                     minlength=csr.n)
    rank = np.empty(csr.n, dtype=np.int64)
    rank[np.lexsort((np.arange(csr.n), -deg))] = np.arange(csr.n)
    ru, rv = rank[csr.src], rank[csr.dst]
    order = np.lexsort((np.maximum(ru, rv), np.minimum(ru, rv)))
    work = np.cumsum((nd[csr.src] + nd[csr.dst])[order])
    i = np.arange(1, k)
    cuts = np.searchsorted(work, work[-1] * i / k)
    # Strictly increasing within [1, m - 1]: no task is left empty.
    cuts = np.clip(np.maximum.accumulate(cuts - i), 0, csr.m - k) + i
    return np.split(order, cuts)


def sub_blocks(eids: np.ndarray, h0: np.ndarray) -> list[np.ndarray]:
    """A task's edges ``eids`` as :data:`_ASYN_BLOCKS` sub-blocks of
    ascending initial value ``h0`` (ties in ``eids`` order), so drops
    propagate in peeling order within a sweep."""
    return np.array_split(eids[np.argsort(h0[eids], kind="stable")], _ASYN_BLOCKS)


def iterate(
    spark: SparkSession,
    edges,
    h: int,
    variant: str,
    *,
    parallelism: int | None = None,
    trace: bool = False,
) -> DecomposeResult:
    """Compute the h-trussness of every edge (columns
    ``src, dst, trussness``) with ``variant``, one of ``paral``,
    ``single``, ``asyn`` and ``paral+``; :func:`repro.core.api.decompose`
    checks the name.

    ``parallelism`` is the number of kernel tasks, each owning a fixed
    range of the edges (:func:`owned_edges`); ``None`` means
    ``sparkContext.defaultParallelism``, and ``single`` runs one. The
    tasks form one barrier stage, which needs all of them running at
    once, so the count is capped at ``defaultParallelism`` (the task
    slots of a local master) and at the number of edges.

    Raises :class:`NotConvergedError` if :data:`MAX_SWEEPS` sweeps leave
    some H-value still changing.
    """
    pairs = edge_array(edges)
    if not len(pairs):
        return DecomposeResult(spark.createDataFrame([], RESULT_SCHEMA))
    vertex_ids, dense = np.unique(pairs, return_inverse=True)
    dense = dense.reshape(-1, 2)
    csr = build_csr(dense[:, 0], dense[:, 1], len(vertex_ids))
    m = csr.m
    if variant == "single":
        parallelism = 1
    k = min(worker_count(spark.sparkContext, parallelism), m)
    owned = owned_edges(csr, k)

    start = time.perf_counter()
    with _kernel_workers(spark.sparkContext, csr, h, k) as run:
        launch_s = time.perf_counter() - start
        # Lines 1-3: H^(0) = h-support.
        jacobi = [[e] for e in owned]  # one block per task
        state = run(np.full(m, UNBOUNDED, dtype=np.int64), jacobi)
        support_s = time.perf_counter() - start - launch_s

        plan = jacobi
        if variant in ("asyn", "paral+"):
            plan = [sub_blocks(e, state) for e in owned]

        traces = [_trace_frame(pairs, state)] if trace else []
        stats = []
        frontier = None  # Paral+: the edges the last sweep's drops may lower
        for _ in range(MAX_SWEEPS):
            start, old = time.perf_counter(), state
            passes = plan if frontier is None else [
                [b[frontier[b]] for b in blocks] for blocks in plan]
            state = run(old, passes)
            dropped = int(np.count_nonzero(state < old))
            if variant == "paral+":
                frontier = frontier_mask(csr, old, state, h)
            stats.append(SweepStats(sum(len(b) for bs in passes for b in bs),
                                    dropped, time.perf_counter() - start))
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
        table = spark.createDataFrame(out, RESULT_SCHEMA)
    return DecomposeResult(table, traces, stats, launch_s, support_s)


@contextmanager
def _kernel_workers(sc: SparkContext, csr: Csr, h: int, k: int):
    """Run :func:`sweep` over ``csr`` in ``k`` stateless Spark tasks that
    live as long as the ``with`` block.

    Yields ``run(hval, plan)``, one message round: task ``i`` gets the H
    vector and ``plan[i]``, a list of edge-id sub-blocks, and updates
    its copy of H one sub-block at a time (Gauss–Seidel); ``run``
    returns ``hval`` with every planned edge set to the value its task
    computed. ``run(None)`` releases the tasks. The tasks form one
    barrier job, launched from an :class:`~pyspark.InheritableThread` so
    the caller's job group covers it; they connect back to a listener on
    ``spark.driver.host`` that admits only holders of a fresh per-call
    key, receive the CSR and acknowledge it, and the block is entered
    once every task has. Each task first calls
    :func:`_skip_unchanged_zip_rereads`, which speeds up the start of
    later tasks in its worker process. If the job fails, the waiting
    driver raises its error. On leaving the block the connections are
    closed (a task not yet released exits on EOF), then the listener,
    and the job thread is joined.
    """
    # Both ends unpickle what they receive: only holders of this key may
    # connect.
    authkey = secrets.token_bytes(32)
    listener = Listener((sc.getConf().get("spark.driver.host"), 0),
                        backlog=k, authkey=authkey)
    address = listener.address

    def serve(_):
        _skip_unchanged_zip_rereads()
        with Client(address, authkey=authkey) as conn, suppress(EOFError):
            _no_delay(conn)
            graph = conn.recv()
            conn.send(None)
            # EOF: the driver gave up on the call and closed the connection.
            while (msg := conn.recv()) is not None:
                hval, blocks = msg
                for eids in blocks:
                    hval[eids] = sweep(graph, hval, eids, h)
                conn.send(hval[np.concatenate(blocks)])
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

    def gather():
        """One reply from every task, in task order."""
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
        return [replies[conn] for conn in conns]

    def run(hval, plan=None):
        if hval is None:
            return send([None] * k)
        send((hval, blocks) for blocks in plan)
        new = hval.copy()
        for blocks, values in zip(plan, gather()):
            new[np.concatenate(blocks)] = values
        return new

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
        gather()
        yield run
    finally:
        close()


def _skip_unchanged_zip_rereads():
    """Make ``importlib.invalidate_caches()`` in this process re-read a
    zip archive on ``sys.path`` only if the archive changed.

    PySpark's worker calls ``invalidate_caches`` at the start of every
    task. Before Python 3.13, that makes each ``zipimporter`` re-read its
    archive's central directory, and a reused worker holds 16 of them
    (``pyspark.zip``, its sub-packages and py4j): 0.1-0.2 s per task.
    The wrapper installed here re-reads an archive only when its
    ``(st_mtime_ns, st_size)`` differs from a stamp taken just before
    its last read, the rule ``FileFinder`` applies to directories.
    Otherwise it points the importer at the cached directory, which the
    other importers of the same archive share. An archive that cannot
    be stat'ed goes to the stock method. A call after the first changes
    nothing; the wrapper takes effect from the next
    ``invalidate_caches``, which re-reads each archive once to stamp it.
    """
    stock = zipimport.zipimporter.invalidate_caches
    if stock.__module__ == __name__:
        return
    stamps = {}

    def invalidate_caches(self):
        try:
            st = os.stat(self.archive)
        except OSError:
            return stock(self)
        stamp = st.st_mtime_ns, st.st_size
        files = zipimport._zip_directory_cache.get(self.archive)
        if files is not None and stamps.get(self.archive) == stamp:
            self._files = files
        else:
            stamps[self.archive] = stamp
            stock(self)

    zipimport.zipimporter.invalidate_caches = invalidate_caches


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
