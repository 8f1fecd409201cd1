"""Algorithm 2 — the parallel H-index decomposition framework.

:func:`task` runs four of the paper's variants, named as
:func:`repro.core.api.decompose` names them (DESIGN.md §3):

* ``paral``  — synchronous (Jacobi) sweeps: each recomputes ``H^(n)``
  for all edges from ``H^(n-1)``, until nothing changes (Theorems 1-2:
  monotone convergence to ``t(e,h) - 2``).
* ``single`` — Paral on one kernel task, the paper's one thread.
* ``asyn``   — asynchronous sweeps (§4.3): each task updates its edges
  in place, in :data:`_ASYN_BLOCKS` sub-blocks by ascending ``H^(0)``
  (Gauss–Seidel within a task, Jacobi between tasks; substitution 2),
  which §4.1 proves converges to the same fixpoint.
* ``paral+`` — Asyn with Lemma 4's pruning: a sweep recomputes only the
  task's edges in the :func:`~repro.core.kernel.frontier_mask` of the
  sweep before (substitution 3); the others would keep their values.

:func:`schedule`, Spark-free and blind to the variant, is the driver's
loop: pass 0 (the h-support) and the sweeps, each one message round of
the H vector. :func:`kernel_workers` is the round's transport: one Spark
job of ``k`` long-lived kernel tasks, each owning its edges for the call
and connected to the driver by a socket, with the H vector on the
driver between rounds, as the paper's threads share it in memory. The
driver waits on the job as a future and on each task's socket in turn;
closing the sockets ends the tasks.

A task builds a :func:`~repro.core.kernel.witness_index` of its edges
in pass 0 and keeps one per sub-block for the call, so a sub-block's
sweep costs its own gathers and no re-expansion of the endpoints it
shares with the others.
"""
import os
import secrets
import socket
import time
import zipimport
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from multiprocessing import AuthenticationError
from multiprocessing.connection import Client, Listener

import numpy as np
from pyspark import inheritable_thread_target
from pyspark.sql import SparkSession

from .kernel import UNBOUNDED, Csr, frontier_mask, witness_index


@dataclass
class SweepStats:
    """One sweep, a message round in which each task recomputes each of
    its edges once (Paral+: those in the frontier): edges recomputed,
    edges whose H-value dropped, seconds."""

    recomputed: int
    dropped: int
    seconds: float


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


# Sub-blocks per task in Asyn and Paral+. More read more values of the
# same sweep, so fewer sweeps: in-process at 4 tasks, 4 -> 16 took the
# YT stand-in from 9 to 8 sweeps at h=2 and from 15 to 13 at h=3, and
# GA's from 16 to 13 at h=2 and from 30 to 26 at h=3. With the
# witness index a sub-block's sweep costs only its own gathers, so the
# slowest task's kernel seconds per call did not rise (DESIGN.md,
# substitution 2).
_ASYN_BLOCKS = 16

# Sweeps a call runs before it raises NotConvergedError.
MAX_SWEEPS = 10_000

# How often the driver, while it waits on the workers, checks whether
# their Spark job has ended.
_POLL_S = 0.5


def owned_edges(csr: Csr, k: int) -> list[np.ndarray]:
    """The edge ids each of ``k`` tasks owns, ``1 <= k <= csr.m``: ``k``
    non-empty contiguous ranges of the edges sorted for locality and cut
    at equal work.

    Vertices are ranked by degree, descending, ties by id, and edges
    sorted by ``(lower rank, higher rank)``, so a task's edges share
    endpoints. An edge's work is ``nd[u] + nd[v]``, where ``nd`` is the
    sum of a vertex's neighbour degrees: the 2-hop walks from it, which
    the h=2 :func:`~repro.core.kernel.witness_index` lists, and only a
    proxy for the longer walks of h >= 3. A cut at equal edge counts puts
    the hub edges in one task and doubles its kernel time on a power-law
    graph.
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


def task(csr: Csr, h: int, variant: str, eids: np.ndarray):
    """A kernel task of ``variant`` over the edge ids ``eids`` it owns: a
    generator, primed with ``next``, then sent one H vector a round, which
    it leaves as it is; it replies with its edges' new values, in ``eids``
    order, and how many it recomputed. Round 1 is pass 0: it builds a
    :func:`~repro.core.kernel.witness_index` of ``eids``, reads ``H^(0)``
    off it and keeps one index per sub-block, so a sweep of a sub-block is
    a few gathers. Later rounds sweep ``eids`` in ascending ``H^(0)``, ties
    in owned order, as one block, or for Asyn and Paral+ as
    :data:`_ASYN_BLOCKS`; a Paral+ sweep after the first skips the edges
    outside the frontier of the last two vectors sent, which it asks of
    :func:`~repro.core.kernel.frontier_mask` for ``eids`` alone."""
    yield
    index = witness_index(csr, eids, h)
    support = index.support
    parts = _ASYN_BLOCKS if variant in ("asyn", "paral+") else 1
    # Sub-blocks as positions in eids, as the frontier mask is indexed.
    blocks = np.array_split(np.argsort(support, kind="stable"), parts)
    updates = [index.block(b).sweep for b in blocks]
    del index  # the blocks keep what their sweeps read
    todo = [np.arange(len(b)) for b in blocks]  # positions in each block
    hval = yield support, len(eids)
    while True:
        new = hval.copy()
        for b, rows, update in zip(blocks, todo, updates):
            new[eids[b[rows]]] = update(new, rows)
        sent, hval = hval, (yield new[eids], sum(map(len, todo)))
        if variant == "paral+":
            frontier = frontier_mask(csr, sent, hval, h, eids)
            todo = [np.flatnonzero(frontier[b]) for b in blocks]


def merge(owned: list[np.ndarray], replies: list) -> tuple[np.ndarray, int]:
    """The H vector a round leaves, each task's ``owned`` edges set to
    the values of its reply, and the edges the tasks recomputed."""
    hval = np.empty(sum(map(len, owned)), dtype=np.int64)
    hval[np.concatenate(owned)] = np.concatenate([values for values, _ in replies])
    return hval, sum(n for _, n in replies)


def schedule(m: int, run):
    """Algorithm 2's loop over an H vector of ``m`` edges, Spark-free:
    ``run(hval)``, the message round of :func:`kernel_workers`, returns
    the next H vector and the edges recomputed.

    Yields ``(hval, stats)`` after pass 0 and after every sweep: the H
    vector and the :class:`SweepStats` of the sweeps so far. Ends after
    the first sweep that lowers no H-value; raises
    :class:`NotConvergedError` if :data:`MAX_SWEEPS` sweeps do not.
    """
    state, _ = run(np.full(m, UNBOUNDED, dtype=np.int64))  # lines 1-3: h-support
    stats = []
    yield state, stats
    for _ in range(MAX_SWEEPS):
        start, old = time.perf_counter(), state
        state, recomputed = run(old)
        dropped = int(np.count_nonzero(state < old))
        stats.append(SweepStats(recomputed, dropped, time.perf_counter() - start))
        yield state, stats
        if not dropped:
            return
    raise NotConvergedError(len(stats), stats[-1])


@contextmanager
def kernel_workers(spark: SparkSession, csr: Csr, h: int, variant: str, k: int):
    """Run :func:`task` of ``variant`` over ``csr`` in ``k`` Spark tasks
    that live as long as the ``with`` block; ``1 <= k``, and ``k`` at
    most ``csr.m`` and ``defaultParallelism``, since a barrier job
    waits until all its tasks run at once.

    Each task's first message is its range of :func:`owned_edges`.
    Yields ``run(hval)``, one message round: every task is sent ``hval``,
    and ``run`` returns the :func:`merge` of their replies, read task by
    task. ``run(None)`` closes the connections, and a task ends on their
    EOF; the CSR travels in the tasks' closure. The tasks form one
    barrier job, a future of a one-thread executor whose target
    :func:`~pyspark.inheritable_thread_target` wraps, so the caller's job
    group and job tags cover it. They connect back to a listener on
    ``spark.driver.host`` that admits only holders of a fresh per-call
    key, and the block is entered once every task has connected and been
    sent its range. Each task first calls
    :func:`_skip_unchanged_zip_rereads`, which speeds up the start of
    later tasks in its worker process. If the job ends while the driver
    waits on it, the driver raises its error; once the answers are in, an
    error of the job is of no consequence and is dropped. On leaving the
    block the connections are closed, then the listener, and the job's
    thread is joined.
    """
    sc = spark.sparkContext
    # Both ends unpickle what they receive: only holders of this key may
    # connect.
    authkey = secrets.token_bytes(32)
    listener = Listener((sc.getConf().get("spark.driver.host"), 0),
                        backlog=k, authkey=authkey)
    address = listener.address

    def serve(_):
        _skip_unchanged_zip_rereads()
        with _no_delay(Client(address, authkey=authkey)) as conn, suppress(EOFError):
            rounds = task(csr, h, variant, conn.recv())
            next(rounds)
            # Ends on EOF: the driver closed the connection, at the end of
            # the call or on giving it up.
            while True:
                conn.send(rounds.send(conn.recv()))
        return iter(())

    def wake(_):
        """Unblock the driver if it waits in accept."""
        with suppress(OSError):
            socket.create_connection(address, timeout=_POLL_S).close()

    conns = []

    def close():
        for conn in conns:
            conn.close()
        # Closed before the join, so no late task can connect and wait.
        listener.close()

    def lost():
        """The job ended, or a connection failed: raise the job's error."""
        close()
        raise job.exception() or RuntimeError(
            "the kernel tasks exited before the call ended")

    def run(hval):
        if hval is None:
            return close()
        try:
            for conn in conns:
                conn.send(hval)
            for conn in conns:
                while not conn.poll(_POLL_S):
                    if job.done():
                        lost()
            replies = [conn.recv() for conn in conns]
        except (EOFError, OSError):
            lost()
        return merge(owned, replies)

    with ThreadPoolExecutor(1) as pool:  # its exit joins the job's thread
        try:
            tasks = sc.parallelize(range(k), k).barrier().mapPartitions(serve)
            job = pool.submit(inheritable_thread_target(spark)(tasks.collect))
            job.add_done_callback(wake)
            owned = owned_edges(csr, k)  # while the tasks start
            while len(conns) < k:
                try:
                    conns.append(_no_delay(listener.accept()))
                except (AuthenticationError, EOFError, OSError):
                    pass  # not a kernel task, or the job's wake-up call: dropped
                if job.done():
                    lost()
            try:
                for conn, eids in zip(conns, owned):
                    conn.send(eids)
            except OSError:
                lost()
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
