"""The numpy sweep kernel of Algorithm 3 against the pure-Python
references, without Spark."""
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import paral
from repro.core.kernel import (
    UNBOUNDED, build_csr, frontier_mask, h_index, witness_index,
)
from repro.graphgen import dataset_edges
from repro.pyref import all_h_supports, decompose_peeling, serial_hindex_decompose
from repro.pyref.graphs import adjacency, bfs_within, canonical_edges
from repro.pyref.hindex import h_index as ref_h_index
from repro.pyref.hsupport import common_h_neighbors
from repro.pyref.truss import _path_keys as ref_path_keys

from .graph_catalog import SMALL_GRAPHS, WEDGE, random_graph

GRAPHS = [(name, SMALL_GRAPHS[name]) for name in sorted(SMALL_GRAPHS)] + [
    (f"random{seed}", random_graph(seed)) for seed in range(4)
] + [
    # At h=2 a mask queried at src endpoints only misses edges the next
    # sweep lowers on this graph, and on none of the graphs above.
    ("random34_n14", random_graph(34, n=14)),
    ("wedge", WEDGE),
]


class Graph:
    """A test graph on original ids and its dense CSR."""

    def __init__(self, raw):
        self.edges = canonical_edges(raw)
        self.vertex_ids = np.unique(self.edges)
        self.csr = build_csr(np.array(self.edges))

    def random_values(self, seed, top=6):
        rng = random.Random(seed)
        return np.array([rng.randint(0, top) for _ in self.edges], dtype=np.int64)

    def as_map(self, values):
        return dict(zip(self.edges, values.tolist()))


def schedule_states(csr, h, variant, k):
    """The H vectors :func:`paral.schedule` yields for ``variant`` on ``k``
    tasks, after pass 0 and after every sweep, and its :class:`SweepStats`,
    with the message round run in this process: each owned range's
    :func:`paral.task` is sent the H vector, and :func:`paral.merge`
    writes the replies."""
    owned = paral.owned_edges(csr, min(k, csr.m))
    tasks = [paral.task(csr, h, variant, eids) for eids in owned]
    for t in tasks:
        next(t)

    def run(hval):
        return paral.merge(owned, [t.send(hval) for t in tasks])

    states = []
    for hval, stats in paral.schedule(csr.m, run):
        states.append(hval)
    return states, stats


def algorithm3(g, values, h):
    """The new H-value of every edge of ``g`` from ``values``, by
    Algorithm 3 applied edge by edge with the pure-Python references."""
    adj, vmap = adjacency(g.edges), g.as_map(values)
    out = []
    for u, v in g.edges:
        delta = common_h_neighbors(adj, u, v, h)
        pu = ref_path_keys(adj, u, h, vmap, targets=delta)
        pv = ref_path_keys(adj, v, h, vmap, targets=delta)
        out.append(ref_h_index(min(pu[w], pv[w]) for w in delta))
    return np.array(out, dtype=np.int64)


def lemma4(g, old, new, h):
    """Lemma 4's frontier in pure Python: whether each edge ``e`` of ``g``
    has an edge ``d`` with ``new[d] < new[e] <= old[d]`` and an endpoint
    within ``h - 1`` hops of an endpoint of ``e``."""
    adj = adjacency(g.edges)
    near = {x: {x, *bfs_within(adj, x, h - 1)} for x in adj}
    dropped = [(g.edges[d], new[d], old[d]) for d in np.flatnonzero(new < old)]
    return [any(lo < t <= hi and not near[u].union(near[v]).isdisjoint(ends)
                for ends, lo, hi in dropped)
            for (u, v), t in zip(g.edges, new)]


@pytest.mark.parametrize("h", [1, 2, 3, 4])
@pytest.mark.parametrize(("name", "raw"), GRAPHS)
class TestAgainstReference:
    def test_path_keys(self, name, raw, h):
        """The index's level-h slot keys are the bottleneck path keys: the
        witnesses of each edge ``(u, v)``, in ascending ``w``, pair
        ``P(u, w)`` with ``P(v, w)``."""
        g = Graph(raw)
        values = g.random_values(name)
        index = witness_index(g.csr, np.arange(len(g.edges)), h)
        keys, ptr = index.keys(values), index.witness_ptr
        adj, vmap = adjacency(g.edges), g.as_map(values)
        for i, (u, v) in enumerate(g.edges):
            delta = sorted(common_h_neighbors(adj, u, v, h))
            pu, pv = ref_path_keys(adj, u, h, vmap), ref_path_keys(adj, v, h, vmap)
            got = keys[index.witnesses[:, ptr[i]:ptr[i + 1]]]
            want = [[pu[w] for w in delta], [pv[w] for w in delta]]
            assert np.sort(got, axis=0).tolist() == np.sort(want, axis=0).tolist()

    def test_pass_zero_is_h_support(self, name, raw, h):
        """Each edge's witness count in the index is its h-support, and so
        is its sweep from :data:`UNBOUNDED`."""
        g = Graph(raw)
        m = len(g.edges)
        index = witness_index(g.csr, np.arange(m), h)
        assert g.as_map(index.support) == all_h_supports(raw, h)
        sup = index.sweep(np.full(m, UNBOUNDED), np.arange(m))
        assert (sup == index.support).all()

    def test_sweep_of_a_subset(self, name, raw, h):
        """The index of every other edge sweeps them as Algorithm 3 does,
        edge by edge on the same H vector, capped at their own values."""
        g = Graph(raw)
        values = g.random_values(name)
        eids = np.arange(0, len(g.edges), 2)
        got = witness_index(g.csr, eids, h).sweep(values, np.arange(len(eids)))
        want = np.minimum(algorithm3(g, values, h), values)[eids]
        assert got.tolist() == want.tolist()

    def test_witness_index_matches_sweep(self, name, raw, h):
        """The witness index of random edge subsets, whole, cut into blocks
        (an empty one too) and restricted to random rows, as Paral+
        restricts a block to its frontier, sweeps as Algorithm 3 does edge
        by edge: capped at ``hval[e]`` on random H vectors, and exactly on
        a vector a sweep from above the h-support reached."""
        g = Graph(raw)
        m = len(g.edges)
        rng = np.random.default_rng(m)
        every = np.arange(m)
        whole = witness_index(g.csr, every, h)
        reached = whole.sweep(whole.support + g.random_values(name, top=3), every)
        exact = algorithm3(g, reached, h)
        for seed in range(4):
            eids = np.flatnonzero(rng.random(m) < 0.6)
            index = witness_index(g.csr, eids, h)
            assert (index.support == whole.support[eids]).all()
            blocks = np.array_split(rng.permutation(len(eids)), 3) + [eids[:0]]
            values = g.random_values(f"{name}{seed}")
            capped = np.minimum(algorithm3(g, values, h), values)
            for values, want in ((values, capped), (reached, exact)):
                for b in blocks:
                    block = index.block(b)
                    rows = np.flatnonzero(rng.random(len(b)) < 0.5)
                    for got, e in ((index.sweep(values, b), eids[b]),
                                   (block.sweep(values, np.arange(len(b))), eids[b]),
                                   (block.sweep(values, rows), eids[b[rows]])):
                        assert got.tolist() == want[e].tolist(), seed

    def test_frontier_mask(self, name, raw, h):
        """The mask is Lemma 4's frontier, as :func:`lemma4` reads it, and
        Lemma 4 is sound: after a sweep lowers ``old`` to ``new``, one
        more sweep leaves every edge outside the mask as it was. Runs
        follow the sweeps from the h-support and from random vectors above
        it (any sweep's result is at most the h-support, so those lower
        too)."""
        g = Graph(raw)
        every = np.arange(len(g.edges))
        index = witness_index(g.csr, every, h)
        sup = index.support
        for old in (sup, sup + g.random_values(name, top=3)):
            new = index.sweep(old, every)
            while (new < old).any():
                mask = frontier_mask(g.csr, old, new, h, every)
                assert mask.tolist() == lemma4(g, old, new, h)
                nxt = index.sweep(new, every)
                assert (nxt[~mask] == new[~mask]).all()
                # A task's query of its owned range is the same mask there.
                for k in (2, 4):
                    for eids in paral.owned_edges(g.csr, min(k, g.csr.m)):
                        own = frontier_mask(g.csr, old, new, h, eids)
                        assert (own == mask[eids]).all(), k
                old, new = new, nxt
        # The same after in-task sweeps, pruned or not: every value a
        # sub-block read lay in (new[d], old[d]].
        for k in (1, 2, 4):
            for variant in ("asyn", "paral+"):
                states, _ = schedule_states(g.csr, h, variant, k)
                for old, new in zip(states, states[1:]):
                    mask = frontier_mask(g.csr, old, new, h, every)
                    assert mask.tolist() == lemma4(g, old, new, h), (k, variant)
                    nxt = index.sweep(new, every)
                    assert (nxt[~mask] == new[~mask]).all(), (k, variant)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_in_task_schedule_reaches_the_fixpoint(self, name, raw, h, k):
        """Every variant's schedule ends at the peeling trussness."""
        g = Graph(raw)
        expected = decompose_peeling(raw, h)
        for variant in ("paral", "asyn", "paral+"):
            final = schedule_states(g.csr, h, variant, k)[0][-1]
            assert g.as_map(final + 2) == expected, variant

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_recomputed_edges(self, name, raw, h, k):
        """Paral and Asyn recompute every edge in every sweep; Paral+ every
        edge in its first sweep, then the frontier of the two sweeps before."""
        g = Graph(raw)
        m, every = len(g.edges), np.arange(len(g.edges))
        for variant in ("paral", "asyn"):
            _, stats = schedule_states(g.csr, h, variant, k)
            assert [s.recomputed for s in stats] == [m] * len(stats), variant
        states, stats = schedule_states(g.csr, h, "paral+", k)
        expected = [m] + [int(frontier_mask(g.csr, old, new, h, every).sum())
                          for old, new in zip(states[:-2], states[1:-1])]
        assert [s.recomputed for s in stats] == expected


def test_asynchrony_saves_sweeps():
    """At 4 tasks, Asyn's 16 sub-blocks a task save sweeps over Paral's
    schedule: 3 against 4 on the toy graph, at most 8 on the YT stand-in
    (9 with 4 sub-blocks) and 13 on GA at bench scale (16). On YT
    Paral+'s pruning changes none of Asyn's drops. At h=3, on YT, Asyn
    takes at most 13 sweeps (15 with 4 sub-blocks), and Asyn and Paral+
    end at the serial per-edge fixpoint."""
    def sweeps(edges, variant):
        return schedule_states(Graph(edges).csr, 2, variant, 4)[1]

    toy = SMALL_GRAPHS["toy"]
    assert len(sweeps(toy, "asyn")) < len(sweeps(toy, "paral")) == 4
    yt = dataset_edges("YT").tolist()
    asyn, plus = sweeps(yt, "asyn"), sweeps(yt, "paral+")
    assert len(asyn) <= 8 and len(plus) <= 8
    assert [s.dropped for s in plus] == [s.dropped for s in asyn]
    assert len(sweeps(dataset_edges("GA").tolist(), "asyn")) <= 13
    g = Graph(yt)
    expected, _ = serial_hindex_decompose(yt, 3, asynchronous=True)
    runs = {v: schedule_states(g.csr, 3, v, 4) for v in ("asyn", "paral+")}
    for variant, (states, _) in runs.items():
        assert g.as_map(states[-1] + 2) == expected, variant
    assert len(runs["asyn"][1]) <= 13


@pytest.mark.parametrize(("name", "raw"), GRAPHS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_owned_edges_partition_the_edges(name, raw, k):
    """Every task owns at least one edge, and each edge one task."""
    csr = Graph(raw).csr
    owned = paral.owned_edges(csr, min(k, csr.m))
    assert len(owned) == min(k, csr.m)
    assert all(len(e) for e in owned)
    assert sorted(np.concatenate(owned).tolist()) == list(range(csr.m))


@given(st.lists(st.tuples(st.integers(0, 14),
                          st.lists(st.integers(0, 12), max_size=12)), max_size=6))
def test_h_index_matches_reference(groups):
    """Capped at each group's size, ℋ is the reference's; capped lower,
    the smaller of the cap and the reference's."""
    values = np.array([x for _, grp in groups for x in grp], dtype=np.int64)
    owner = np.array([i for i, (_, grp) in enumerate(groups) for _ in grp],
                     dtype=np.int64)
    ref = [ref_h_index(grp) for _, grp in groups]
    size = np.bincount(owner, minlength=len(groups))
    assert h_index(values, owner, size).tolist() == ref
    cap = np.array([c for c, _ in groups], dtype=np.int64)
    assert h_index(values, owner, cap).tolist() == np.minimum(cap, ref).tolist()


def test_h_index_of_inf_counts():
    got = h_index(np.full(3, UNBOUNDED), np.zeros(3, dtype=np.int64),
                  np.array([3, 0]))
    assert got.tolist() == [3, 0]


def test_invalid_h_raises():
    g = Graph(SMALL_GRAPHS["triangle"])
    with pytest.raises(ValueError, match=">= 1"):
        witness_index(g.csr, np.arange(3), 0)


def test_h_beyond_the_graph_is_capped():
    """A simple path has at most ``n - 1`` edges, so any larger h gives
    the answer of ``h = n - 1``, and at no more cost: on the toy graph
    (n = 14) the index at h = 10**4 has the ``n - 2`` levels, the
    support and the slot keys of ``h = n - 1``, and the same mask."""
    g = Graph(SMALL_GRAPHS["toy"])
    n, every = g.csr.n, np.arange(g.csr.m)
    big, top = witness_index(g.csr, every, 10**4), witness_index(g.csr, every, n - 1)
    assert len(big.levels) == n - 2
    assert (big.support == top.support).all()
    old = big.support + g.random_values("toy", top=3)
    assert (big.keys(old) == top.keys(old)).all()
    new = big.sweep(old, every)
    assert (new < old).any()
    assert (frontier_mask(g.csr, old, new, 10**4, every)
            == frontier_mask(g.csr, old, new, n - 1, every)).all()
