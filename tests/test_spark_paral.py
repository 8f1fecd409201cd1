"""End-to-end tests for Algorithm 2 and its variants (the contribution).

Every variant must produce exactly the peeling trussness (Theorem 2) of
``repro.pyref``; traces must be monotone (Theorem 1); Asyn must not need
more sweeps than Paral (§4.3).
"""
import gc
import os
import threading
import time
import zipimport
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import paral
from repro.core.api import VARIANTS, decompose
from repro.core.paral import NotConvergedError
from repro.graphgen import dataset_edges
from repro.pyref import (
    all_h_supports, canonical_edges, decompose_peeling, serial_hindex_decompose,
)

from .graph_catalog import SMALL_GRAPHS, WEDGE, random_graph

# A call on a graph of a few dozen edges takes about a second; a barrier
# stage that waits for task slots it will never get, or a driver that
# waits on tasks that have failed, takes minutes.
PROMPT_S = 60


def _as_dict(result_df):
    return {(r.src, r.dst): r.trussness for r in result_df.collect()}


def _open_sockets() -> int:
    gc.collect()
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:  # the fd of the listing itself
            pass
    return count


@contextmanager
def _no_leftovers():
    """Assert the block leaves no thread or socket behind."""
    threads, sockets = set(threading.enumerate()), _open_sockets()
    yield
    assert set(threading.enumerate()) == threads
    assert _open_sockets() == sockets


def _within(seconds, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, failing the test if it neither returns
    nor raises within ``seconds``."""
    out = {}

    def target():
        try:
            out["value"] = fn(*args, **kwargs)
        except Exception as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def _after_pass_zero(then):
    """A stand-in for :func:`paral.task` that runs pass 0 as the real one
    does, then calls ``then()`` when its first sweep's vector arrives.
    Patching ``paral.task`` reaches the kernel tasks: the closure they
    run takes the module's ``task`` as it is when the job starts."""
    real = paral.task

    def rounds(*args):
        inner = real(*args)
        hval = yield next(inner)
        yield inner.send(hval)
        then()

    return rounds


@pytest.fixture(scope="module")
def toy_paral(sparkf):
    """One traced Paral run on the toy graph, shared by several tests."""
    return decompose(sparkf, SMALL_GRAPHS["toy"], 2, "paral", trace=True,
                     parallelism=4)


class TestParalCorrectness:
    @pytest.mark.parametrize("name", ["toy", "bowtie", "petersen"])
    @pytest.mark.parametrize("h", [1, 2])
    def test_matches_peeling_catalog(self, sparkf, name, h):
        edges = SMALL_GRAPHS[name]
        res = decompose(sparkf, edges, h, "paral", parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(edges, h)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("h", [2, 3])
    def test_matches_peeling_random(self, sparkf, seed, h):
        edges = random_graph(seed)
        res = decompose(sparkf, edges, h, "paral", parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(edges, h)

    def test_empty_graph(self, sparkf):
        res = decompose(sparkf, [], 2, "paral")
        assert res.trussness.count() == 0
        assert res.sweeps == 0

    def test_spark_input_beyond_32_bit_ids(self, arrow_sparkf):
        """(1, 2**32 + 5) and (2, 5) are two edges, though
        ``2**32 * src + dst`` is the same for both."""
        big = 2**32 + 5
        edges = [(1, big), (2, 5), (1, 2), (2, big), (5, big), (1, 5)]
        raw = arrow_sparkf.createDataFrame(edges, "u long, v long")
        res = decompose(arrow_sparkf, raw, 2, "paral", parallelism=2)
        assert _as_dict(res.trussness) == decompose_peeling(edges, 2)

    def test_zero_support_edges_get_trussness_2(self, sparkf):
        res = decompose(sparkf, SMALL_GRAPHS["single_edge"], 2, "paral",
                        parallelism=2)
        assert _as_dict(res.trussness) == {(3, 7): 2}

    def test_traced_result_matches_peeling(self, sparkf, toy_paral):
        toy = SMALL_GRAPHS["toy"]
        assert _as_dict(toy_paral.trussness) == decompose_peeling(toy, 2)


class TestVariants:
    @pytest.mark.parametrize("h", [1, 2])
    def test_asyn_matches_peeling(self, sparkf, h):
        edges = SMALL_GRAPHS["toy"]
        res = decompose(sparkf, edges, h, "asyn", parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(edges, h)

    @pytest.mark.parametrize("h", [1, 2])
    def test_paralplus_matches_peeling(self, sparkf, h):
        edges = SMALL_GRAPHS["toy"]
        res = decompose(sparkf, edges, h, "paral+", parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(edges, h)

    @pytest.mark.parametrize("seed", [2])
    def test_all_variants_agree_random(self, sparkf, seed):
        edges = random_graph(seed)
        expected = decompose_peeling(edges, 2)
        for variant in VARIANTS:
            res = decompose(sparkf, edges, 2, variant, parallelism=4)
            assert _as_dict(res.trussness) == expected, variant

    def test_single_parallelism_one(self, sparkf):
        edges = SMALL_GRAPHS["bowtie"]
        res = decompose(sparkf, edges, 2, "single")
        assert _as_dict(res.trussness) == decompose_peeling(edges, 2)

    def test_parallelism_above_task_slots(self, sparkf):
        """16 tasks on a 4-slot master: capped, not waiting for slots."""
        edges = random_graph(0)
        res = _within(PROMPT_S, decompose, sparkf, edges, 2, "paral",
                      parallelism=16)
        assert _as_dict(res.trussness) == decompose_peeling(edges, 2)

    @pytest.mark.parametrize("variant", ["paral+", "asyn"])
    def test_passes_smaller_than_the_tasks(self, sparkf, variant):
        """random_graph(2) at h=2 has 13 edges: on a session with 4 task
        slots each task owns 2-5 of them, so most of its 16 sub-blocks are
        empty, and Paral+'s second and third sweeps recompute 1 edge and
        none, leaving some tasks, then all, with no edge to update."""
        edges = random_graph(2)
        res = decompose(sparkf, edges, 2, variant, parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(edges, 2)
        if variant == "paral+":
            assert [s.recomputed for s in res.stats] == [13, 1, 0]

    def test_every_task_owns_an_edge(self, sparkf):
        """The wedge's two edges weigh the same: a cut at half the work
        would leave one of 2 tasks no edge."""
        for variant in ("paral", "asyn", "paral+"):
            res = decompose(sparkf, WEDGE, 1, variant, parallelism=2)
            assert _as_dict(res.trussness) == decompose_peeling(WEDGE, 1), variant

    def test_calls_leave_session_conf_unchanged(self, sparkf):
        """A call of any variant sets no SparkContext or SQL conf of the
        caller's session."""
        sc = sparkf.sparkContext

        def conf():
            return sorted(sc.getConf().getAll()), sparkf.conf.getAll

        before = conf()
        for variant in VARIANTS:
            decompose(sparkf, SMALL_GRAPHS["toy"], 2, variant, parallelism=2)
            assert conf() == before, variant


class TestSweepsAndTrace:
    def test_paral_sweeps_match_serial_reference(self, sparkf, toy_paral):
        _, ref_sweeps = serial_hindex_decompose(SMALL_GRAPHS["toy"], 2)
        assert toy_paral.sweeps == ref_sweeps == 4

    def test_asyn_needs_fewer_or_equal_sweeps(self, sparkf, toy_paral):
        asyn = decompose(sparkf, SMALL_GRAPHS["toy"], 2, "asyn", parallelism=4)
        assert asyn.sweeps <= toy_paral.sweeps
        assert asyn.sweeps < toy_paral.sweeps  # strict on the toy (3 < 4)

    def test_trace_starts_at_h_support(self, toy_paral):
        sup = all_h_supports(SMALL_GRAPHS["toy"], 2)
        first = toy_paral.trace[0]
        got = {
            (r.src, r.dst): r.hval for r in first.itertuples(index=False)
        }
        assert got == sup

    def test_trace_is_monotone_nonincreasing(self, toy_paral):
        """Theorem 1: H^(n)sup(e) >= H^(n+1)sup(e) for every edge."""
        frames = toy_paral.trace
        assert len(frames) == toy_paral.sweeps + 1
        for a, b in zip(frames, frames[1:]):
            merged = a.merge(b, on=["src", "dst"], suffixes=("_a", "_b"))
            assert (merged.hval_b <= merged.hval_a).all()

    def test_trace_converges_to_trussness(self, toy_paral):
        expected = decompose_peeling(SMALL_GRAPHS["toy"], 2)
        last = toy_paral.trace[-1]
        got = {
            (r.src, r.dst): r.hval + 2 for r in last.itertuples(index=False)
        }
        assert got == expected

    def test_last_two_trace_frames_equal(self, toy_paral):
        a, b = toy_paral.trace[-2], toy_paral.trace[-1]
        assert a.equals(b)


class TestBenchScale:
    """Base, Paral and Paral+ against the serial synchronous oracle on
    the 2,227-edge power-law YT stand-in at h=2, Paral+ against Asyn,
    its unpruned twin, and Asyn against Paral on YT and on the
    13,249-edge uniform GA stand-in."""

    @pytest.fixture(scope="class")
    def yt(self):
        edges = dataset_edges("YT")
        return edges, serial_hindex_decompose(edges.tolist(), 2)

    @pytest.fixture(scope="class")
    def runs(self, sparkf, yt):
        return {variant: decompose(sparkf, yt[0], 2, variant, parallelism=4)
                for variant in ("paral", "asyn", "paral+")}

    @pytest.mark.parametrize("pruning", [False, True])
    def test_matches_serial(self, yt, runs, pruning):
        """Paral's sweeps are the synchronous oracle's; Paral+'s in-task
        updates need no more."""
        _, (expected, ref_sweeps) = yt
        res = runs["paral+" if pruning else "paral"]
        assert _as_dict(res.trussness) == expected
        if pruning:
            assert res.sweeps <= ref_sweeps
        else:
            assert res.sweeps == ref_sweeps

    def test_base_matches_serial(self, sparkf, yt):
        """Base peels all of YT to the oracle's trussness."""
        edges, (expected, _) = yt
        assert _as_dict(decompose(sparkf, edges, 2, "base").trussness) == expected

    def test_pruning_recomputes_fewer_edges(self, runs):
        """On YT, pruning Asyn's sweeps changes none of their drops."""
        asyn, plus = runs["asyn"], runs["paral+"]
        assert _as_dict(plus.trussness) == _as_dict(asyn.trussness)
        assert plus.sweeps == asyn.sweeps == len(plus.stats) == len(asyn.stats)
        assert [s.dropped for s in plus.stats] == [s.dropped for s in asyn.stats]
        assert (sum(s.recomputed for s in plus.stats)
                < sum(s.recomputed for s in asyn.stats))

    @pytest.mark.parametrize("key", ["YT", "GA"])
    def test_asyn_needs_no_more_sweeps(self, sparkf, key):
        """§4.3 and Figure 6: the asynchronous schedule reaches the same
        trussness in at most Paral's number of sweeps, and in fewer on
        GA (13 against 21)."""
        edges = dataset_edges(key)
        paral = decompose(sparkf, edges, 2, "paral", parallelism=4)
        asyn = decompose(sparkf, edges, 2, "asyn", parallelism=4)
        assert _as_dict(asyn.trussness) == _as_dict(paral.trussness)
        assert 1 <= asyn.sweeps <= paral.sweeps
        if key == "GA":
            assert asyn.sweeps < paral.sweeps


class TestKernelWorkers:
    """The call's one Spark job: its job group, failures and teardown."""

    TOY = SMALL_GRAPHS["toy"]

    def _assert_toy_right(self, sparkf):
        res = decompose(sparkf, self.TOY, 2, "paral", parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(self.TOY, 2)

    def test_one_job_in_callers_group(self, sparkf):
        """Pass 0 and 4 sweeps run as message rounds of a single job, which
        the caller's job group covers."""
        sc = sparkf.sparkContext
        sc.setJobGroup("paral-test-group", "one call")
        try:
            res = decompose(sparkf, self.TOY, 2, "paral", parallelism=4)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert res.sweeps == 4
        assert len(sc.statusTracker().getJobIdsForGroup("paral-test-group")) == 1

    def test_no_leftovers_after_success(self, sparkf):
        self._assert_toy_right(sparkf)  # warm: the session's own sockets exist
        with _no_leftovers():
            self._assert_toy_right(sparkf)

    @pytest.mark.parametrize("where", ["task", "Client"])
    def test_worker_failure_raises_promptly(self, sparkf, monkeypatch, where):
        """A task that fails after pass 0 (``task``) or before it connects
        (``Client``) fails the call; the next call is unaffected."""
        self._assert_toy_right(sparkf)

        def broken(*args, **kwargs):
            raise ValueError("injected task failure")

        monkeypatch.setattr(paral, where,
                            _after_pass_zero(broken) if where == "task" else broken)
        with _no_leftovers(), pytest.raises(Exception, match="injected task failure"):
            _within(PROMPT_S, decompose, sparkf, self.TOY, 2, "paral",
                    parallelism=4)
        monkeypatch.undo()
        self._assert_toy_right(sparkf)

    def test_cancelled_job_group_raises_promptly(self, sparkf, monkeypatch):
        """Cancelling the caller's job group while every task hangs in a
        round fails the call; the next call is unaffected."""
        self._assert_toy_right(sparkf)
        sc, group = sparkf.sparkContext, "paral-cancel-group"

        def hang():
            time.sleep(2 * PROMPT_S)

        def call():
            # Local properties are pinned to the thread that sets them.
            sc.setJobGroup(group, "a call cancelled in a round")
            try:
                return decompose(sparkf, self.TOY, 2, "paral", parallelism=4)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)

        monkeypatch.setattr(paral, "task", _after_pass_zero(hang))
        cancel = threading.Timer(3, sc.cancelJobGroup, [group])
        with _no_leftovers():
            cancel.start()
            try:
                with pytest.raises(Exception, match="cancelled"):
                    _within(PROMPT_S, call)
            finally:
                cancel.cancel()
                cancel.join()
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1
        monkeypatch.undo()
        self._assert_toy_right(sparkf)

    def test_cancelled_job_tag_raises_promptly(self, sparkf, monkeypatch):
        """Cancelling a job tag the calling thread added, while every task
        hangs in a round, fails the call: the kernel job carries the
        caller's tags. The next call is unaffected."""
        self._assert_toy_right(sparkf)
        sc, tag = sparkf.sparkContext, "paral-cancel-tag"

        def hang():
            time.sleep(2 * PROMPT_S)

        def call():
            # Job tags, like the job group, are local to the calling thread.
            sc.addJobTag(tag)
            try:
                return decompose(sparkf, self.TOY, 2, "paral", parallelism=4)
            finally:
                sc.removeJobTag(tag)

        monkeypatch.setattr(paral, "task", _after_pass_zero(hang))
        cancel = threading.Timer(3, sc.cancelJobsWithTag, [tag])
        with _no_leftovers():
            cancel.start()
            try:
                with pytest.raises(Exception, match="cancelled"):
                    _within(PROMPT_S, call)
            finally:
                cancel.cancel()
                cancel.join()
        monkeypatch.undo()
        self._assert_toy_right(sparkf)

    def test_unauthenticated_connection_is_dropped(self, sparkf, monkeypatch):
        """Every task first connects with a wrong key; the driver drops
        those connections and keeps accepting."""
        real = paral.Client

        def wrong_key_first(address, authkey):
            from multiprocessing import AuthenticationError

            try:
                real(address, authkey=b"not the key")
            except AuthenticationError:
                pass
            return real(address, authkey=authkey)

        monkeypatch.setattr(paral, "Client", wrong_key_first)
        self._assert_toy_right(sparkf)

    def test_setup_timings(self, sparkf):
        """``launch_s``, ``support_s`` and the sweeps fit inside the call."""
        start = time.perf_counter()
        res = decompose(sparkf, self.TOY, 2, "paral", parallelism=4)
        wall = time.perf_counter() - start
        assert res.launch_s > 0 and res.support_s > 0
        assert res.launch_s + res.support_s + sum(s.seconds for s in res.stats) <= wall

    def test_workers_skip_unchanged_zip_rereads(self, sparkf):
        """A task in a worker that ran a kernel task reads no zip
        directory while it starts, and the driver's ``zipimport`` is
        untouched.

        A first job installs a counter of zip directory reads in each
        worker that ran a kernel task; a second job reports, by pid, what
        it counted since. Both jobs have many more tasks than slots, so
        they go through every idle worker."""
        self._assert_toy_right(sparkf)
        sc = sparkf.sparkContext
        n = 8 * sc.defaultParallelism

        def install_counter(_):
            import zipimport

            read = zipimport._read_directory
            kernel_ran = zipimport.zipimporter.invalidate_caches.__module__ != "zipimport"
            if kernel_ran and not hasattr(read, "reads"):
                def counting(path):
                    counting.reads.append(path)
                    return read(path)

                counting.reads, counting.stock = [], read
                zipimport._read_directory = counting
            return iter([os.getpid()] if kernel_ran else [])

        def report_reads(_):
            import zipimport

            read = zipimport._read_directory
            if not hasattr(read, "reads"):
                return iter(())
            zipimport._read_directory = read.stock
            return iter([(os.getpid(), read.reads)])

        counted = set(sc.parallelize(range(n), n).mapPartitions(install_counter).collect())
        reads = dict(sc.parallelize(range(n), n).mapPartitions(report_reads).collect())
        assert counted, "no worker holds the wrapper a kernel task installs"
        assert reads and set(reads) <= counted
        assert all(paths == [] for paths in reads.values()), reads
        stock = zipimport.zipimporter.invalidate_caches
        assert (stock.__module__, stock.__qualname__) == (
            "zipimport", "zipimporter.invalidate_caches")

    def test_not_converged(self, sparkf, monkeypatch):
        """The toy graph at h=2 needs 4 sweeps."""
        self._assert_toy_right(sparkf)
        monkeypatch.setattr(paral, "MAX_SWEEPS", 1)
        with _no_leftovers(), pytest.raises(NotConvergedError) as err:
            decompose(sparkf, self.TOY, 2, "paral", parallelism=4)
        assert err.value.sweeps == 1
        assert err.value.last.dropped > 0
        monkeypatch.undo()
        self._assert_toy_right(sparkf)


_GRAPHS = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=30
).map(canonical_edges)


class TestProperties:
    """Theorems 1-2 on random graphs of at most 12 vertices."""

    @settings(max_examples=10, deadline=None)
    @given(edges=_GRAPHS, h=st.integers(1, 3))
    def test_variants_match_peeling(self, sparkf, edges, h):
        expected = decompose_peeling(edges, h)
        for variant in VARIANTS:
            res = decompose(sparkf, edges, h, variant, parallelism=4)
            assert _as_dict(res.trussness) == expected, variant

    @settings(max_examples=10, deadline=None)
    @given(edges=_GRAPHS, h=st.integers(1, 3))
    def test_trace_is_monotone(self, sparkf, edges, h):
        frames = decompose(sparkf, edges, h, "paral", parallelism=4, trace=True).trace
        for a, b in zip(frames, frames[1:]):
            assert (b.hval <= a.hval).all()
