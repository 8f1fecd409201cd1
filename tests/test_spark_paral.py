"""End-to-end tests for Algorithm 2 and its variants (the contribution).

Every variant must produce exactly the peeling trussness (Theorem 2);
traces must be monotone (Theorem 1); Asyn must not need more sweeps than
Paral (§4.3); results are also pushed through the DuckDB oracle.
"""
import gc
import os
import threading
from contextlib import contextmanager

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import paral
from repro.core.api import decompose
from repro.core.paral import NotConvergedError, parallel_decompose
from repro.graphgen import dataset_edges
from repro.oracle import assert_equivalent
from repro.pyref import (
    all_h_supports, canonical_edges, decompose_peeling, serial_hindex_decompose,
)

from .graph_catalog import SMALL_GRAPHS, random_graph

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


@pytest.fixture(scope="module")
def toy_paral(sparkf):
    """One traced Paral run on the toy graph, shared by several tests."""
    return parallel_decompose(
        sparkf, SMALL_GRAPHS["toy"], 2, trace=True, parallelism=4
    )


class TestParalCorrectness:
    @pytest.mark.parametrize("name", ["toy", "bowtie", "petersen"])
    @pytest.mark.parametrize("h", [1, 2])
    def test_matches_peeling_catalog(self, sparkf, name, h):
        edges = SMALL_GRAPHS[name]
        res = parallel_decompose(sparkf, edges, h, parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(edges, h)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("h", [2, 3])
    def test_matches_peeling_random(self, sparkf, seed, h):
        edges = random_graph(seed)
        res = parallel_decompose(sparkf, edges, h, parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(edges, h)

    def test_empty_graph(self, sparkf):
        res = parallel_decompose(sparkf, [], 2)
        assert res.trussness.count() == 0
        assert res.sweeps == 0

    def test_spark_input_beyond_32_bit_ids(self, sparkf):
        """Packed as ``src << 32 | dst``, (1, 2**32 + 5) and (2, 5) would
        share an edge id."""
        big = 2**32 + 5
        edges = [(1, big), (2, 5), (1, 2), (2, big), (5, big), (1, 5)]
        raw = sparkf.createDataFrame(edges, "u long, v long")
        res = parallel_decompose(sparkf, raw, 2, parallelism=2)
        assert _as_dict(res.trussness) == decompose_peeling(edges, 2)

    def test_zero_support_edges_get_trussness_2(self, sparkf):
        res = parallel_decompose(sparkf, SMALL_GRAPHS["single_edge"], 2, parallelism=2)
        assert _as_dict(res.trussness) == {(3, 7): 2}

    def test_result_via_duckdb_oracle(self, sparkf, toy_paral):
        expected = decompose_peeling(SMALL_GRAPHS["toy"], 2)
        expected_pdf = pd.DataFrame(
            [(u, v, t) for (u, v), t in sorted(expected.items())],
            columns=["src", "dst", "trussness"],
        )
        assert_equivalent(
            toy_paral.trussness.select("src", "dst", "trussness"),
            "SELECT src, dst, trussness FROM expected",
            expected=expected_pdf,
        )


class TestVariants:
    @pytest.mark.parametrize("h", [1, 2])
    def test_asyn_matches_peeling(self, sparkf, h):
        edges = SMALL_GRAPHS["toy"]
        res = parallel_decompose(sparkf, edges, h, asynchronous=True, parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(edges, h)

    @pytest.mark.parametrize("h", [1, 2])
    def test_paralplus_matches_peeling(self, sparkf, h):
        edges = SMALL_GRAPHS["toy"]
        res = parallel_decompose(
            sparkf, edges, h, asynchronous=True, pruning=True, parallelism=4
        )
        assert _as_dict(res.trussness) == decompose_peeling(edges, h)

    @pytest.mark.parametrize("seed", [2])
    def test_all_variants_agree_random(self, sparkf, seed):
        edges = random_graph(seed)
        expected = decompose_peeling(edges, 2)
        for kwargs in (
            {},
            {"asynchronous": True},
            {"asynchronous": True, "pruning": True},
            {"pruning": True},
        ):
            res = parallel_decompose(sparkf, edges, 2, parallelism=4, **kwargs)
            assert _as_dict(res.trussness) == expected, f"variant {kwargs}"

    def test_single_parallelism_one(self, sparkf):
        edges = SMALL_GRAPHS["bowtie"]
        res = parallel_decompose(sparkf, edges, 2, parallelism=1)
        assert _as_dict(res.trussness) == decompose_peeling(edges, 2)

    def test_parallelism_above_task_slots(self, sparkf):
        """16 tasks on a 4-slot master: capped, not waiting for slots."""
        edges = random_graph(0)
        res = _within(PROMPT_S, parallel_decompose, sparkf, edges, 2, parallelism=16)
        assert _as_dict(res.trussness) == decompose_peeling(edges, 2)

    @pytest.mark.parametrize("variant", ["paral+", "asyn"])
    def test_passes_smaller_than_the_tasks(self, sparkf, variant):
        """random_graph(0) at h=2 has 12 edges: each Asyn block holds 3,
        and Paral+'s third sweep recomputes 2. On a session with 4 task
        slots, passes with fewer edge ids than the 4 tasks leave some
        tasks an empty chunk."""
        edges = random_graph(0)
        res = decompose(sparkf, edges, 2, variant, parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(edges, 2)
        if variant == "paral+":
            assert [s.recomputed for s in res.stats] == [12, 5, 2, 4]

    def test_parallelism_restores_conf(self, sparkf):
        before = sparkf.conf.get("spark.sql.shuffle.partitions")
        parallel_decompose(sparkf, SMALL_GRAPHS["triangle"], 1, parallelism=2)
        assert sparkf.conf.get("spark.sql.shuffle.partitions") == before


class TestSweepsAndTrace:
    def test_paral_sweeps_match_serial_reference(self, sparkf, toy_paral):
        _, ref_sweeps = serial_hindex_decompose(SMALL_GRAPHS["toy"], 2)
        assert toy_paral.sweeps == ref_sweeps == 4

    def test_asyn_needs_fewer_or_equal_sweeps(self, sparkf, toy_paral):
        asyn = parallel_decompose(
            sparkf, SMALL_GRAPHS["toy"], 2, asynchronous=True, parallelism=4
        )
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
    """Paral and Paral+ against the serial synchronous oracle on the
    2,227-edge power-law YT stand-in at h=2."""

    @pytest.fixture(scope="class")
    def yt(self):
        edges = dataset_edges("YT")
        return edges, serial_hindex_decompose(edges.tolist(), 2)

    @pytest.fixture(scope="class")
    def runs(self, sparkf, yt):
        return {pruning: parallel_decompose(sparkf, yt[0], 2, pruning=pruning,
                                            parallelism=4)
                for pruning in (False, True)}

    @pytest.mark.parametrize("pruning", [False, True])
    def test_matches_serial(self, yt, runs, pruning):
        _, (expected, ref_sweeps) = yt
        res = runs[pruning]
        assert _as_dict(res.trussness) == expected
        assert res.sweeps == ref_sweeps

    def test_pruning_recomputes_fewer_edges(self, runs):
        paral, plus = runs[False], runs[True]
        assert _as_dict(plus.trussness) == _as_dict(paral.trussness)
        assert plus.sweeps == paral.sweeps == len(plus.stats) == len(paral.stats)
        assert [s.dropped for s in plus.stats] == [s.dropped for s in paral.stats]
        assert (sum(s.recomputed for s in plus.stats)
                < sum(s.recomputed for s in paral.stats))


class TestKernelWorkers:
    """The call's one Spark job: its job group, failures and teardown."""

    TOY = SMALL_GRAPHS["toy"]

    def _assert_toy_right(self, sparkf):
        res = parallel_decompose(sparkf, self.TOY, 2, parallelism=4)
        assert _as_dict(res.trussness) == decompose_peeling(self.TOY, 2)

    def test_one_job_in_callers_group(self, sparkf):
        """Pass 0 and 4 sweeps run as message rounds of a single job, which
        the caller's job group covers."""
        sc = sparkf.sparkContext
        sc.setJobGroup("paral-test-group", "one call")
        try:
            res = parallel_decompose(sparkf, self.TOY, 2, parallelism=4)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert res.sweeps == 4
        assert len(sc.statusTracker().getJobIdsForGroup("paral-test-group")) == 1

    def test_no_leftovers_after_success(self, sparkf):
        self._assert_toy_right(sparkf)  # warm: the session's own sockets exist
        with _no_leftovers():
            self._assert_toy_right(sparkf)

    @pytest.mark.parametrize("where", ["sweep", "Client"])
    def test_worker_failure_raises_promptly(self, sparkf, monkeypatch, where):
        """A task that fails in a round (``sweep``) or before it connects
        (``Client``) fails the call; the next call is unaffected."""
        self._assert_toy_right(sparkf)

        def broken(*args, **kwargs):
            raise ValueError("injected task failure")

        monkeypatch.setattr(paral, where, broken)
        with _no_leftovers(), pytest.raises(Exception, match="injected task failure"):
            _within(PROMPT_S, parallel_decompose, sparkf, self.TOY, 2, parallelism=4)
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

    def test_not_converged(self, sparkf):
        """The toy graph at h=2 needs 4 sweeps."""
        self._assert_toy_right(sparkf)
        with _no_leftovers(), pytest.raises(NotConvergedError) as err:
            parallel_decompose(sparkf, self.TOY, 2, parallelism=4, max_sweeps=1)
        assert err.value.sweeps == 1
        assert err.value.last.dropped > 0
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
        for kwargs in (
            {},
            {"asynchronous": True},
            {"pruning": True},
            {"asynchronous": True, "pruning": True},
        ):
            res = parallel_decompose(sparkf, edges, h, parallelism=4, **kwargs)
            assert _as_dict(res.trussness) == expected, f"variant {kwargs}"

    @settings(max_examples=10, deadline=None)
    @given(edges=_GRAPHS, h=st.integers(1, 3))
    def test_trace_is_monotone(self, sparkf, edges, h):
        frames = parallel_decompose(sparkf, edges, h, parallelism=4, trace=True).trace
        for a, b in zip(frames, frames[1:]):
            assert (b.hval <= a.hval).all()
