"""The numpy sweep kernel of Algorithm 3 against the pure-Python
references, without Spark."""
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import kernel, paral
from repro.core.kernel import (
    UNBOUNDED, build_csr, frontier_mask, h_index, path_keys, sweep, witness_index,
)
from repro.graphgen import dataset_edges
from repro.pyref import all_h_supports, decompose_peeling
from repro.pyref.graphs import adjacency, bfs_within, canonical_edges
from repro.pyref.hindex import h_index as ref_h_index
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


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize(("name", "raw"), GRAPHS)
class TestAgainstReference:
    def test_path_keys(self, name, raw, h):
        g = Graph(raw)
        values = g.random_values(name)
        n = len(g.vertex_ids)
        code, key = path_keys(g.csr, values, np.arange(n), h)
        got = {}
        for c, k in zip(code.tolist(), key.tolist()):
            s, w = divmod(c, n)
            got[(int(g.vertex_ids[s]), int(g.vertex_ids[w]))] = k
        adj = adjacency(g.edges)
        ref = {(s, w): k for s in adj
               for w, k in ref_path_keys(adj, s, h, g.as_map(values)).items()}
        assert got == ref

    def test_pass_zero_is_h_support(self, name, raw, h):
        """So is each edge's witness count in the witness index (h <= 2)."""
        g = Graph(raw)
        m = len(g.edges)
        sup = sweep(g.csr, np.full(m, UNBOUNDED), np.arange(m), h)
        assert g.as_map(sup) == all_h_supports(raw, h)
        if h <= 2:
            assert (witness_index(g.csr, np.arange(m), h).support == sup).all()

    def test_sweep_of_a_subset(self, name, raw, h):
        """One sweep, for every other edge, matches Algorithm 3 applied
        edge by edge to the same H vector; at h <= 2 so does the witness
        index's sweep of those edges, capped at their own values."""
        g = Graph(raw)
        values = g.random_values(name)
        eids = np.arange(0, len(g.edges), 2)
        got = sweep(g.csr, values, eids, h).tolist()
        if h <= 2:
            index = witness_index(g.csr, eids, h)
            capped = index.sweep(values, np.arange(len(eids)))
            assert capped.tolist() == np.minimum(got, values[eids]).tolist()
        adj, vmap = adjacency(g.edges), g.as_map(values)
        ref = []
        for i in eids.tolist():
            u, v = g.edges[i]
            delta = (set(bfs_within(adj, u, h)) & set(bfs_within(adj, v, h))) - {u, v}
            pu = ref_path_keys(adj, u, h, vmap, targets=delta)
            pv = ref_path_keys(adj, v, h, vmap, targets=delta)
            ref.append(ref_h_index(min(pu[w], pv[w]) for w in delta))
        assert got == ref

    def test_witness_index_matches_sweep(self, name, raw, h):
        """At h <= 2 the witness index of random edge subsets, whole, cut
        into blocks (an empty one too) and restricted to random rows, as
        Paral+ restricts a block to its frontier, sweeps to
        ``min(hval[e], sweep(...))`` on random H vectors, and to exactly
        :func:`sweep` on a vector a sweep from above the h-support reached.
        At h >= 3 there is no index."""
        g = Graph(raw)
        m = len(g.edges)
        if h > 2:
            with pytest.raises(ValueError, match="h in"):
                witness_index(g.csr, np.arange(m), h)
            return
        rng = np.random.default_rng(m)
        sup = sweep(g.csr, np.full(m, UNBOUNDED), np.arange(m), h)
        reached = sweep(g.csr, sup + g.random_values(name, top=3), np.arange(m), h)
        for seed in range(4):
            eids = np.flatnonzero(rng.random(m) < 0.6)
            index = witness_index(g.csr, eids, h)
            assert (index.support == sup[eids]).all()
            blocks = np.array_split(rng.permutation(len(eids)), 3) + [eids[:0]]
            for values in (g.random_values(f"{name}{seed}"), reached):
                exact = values is reached
                for b in blocks:
                    block = index.block(b)
                    rows = np.flatnonzero(rng.random(len(b)) < 0.5)
                    for got, e in ((index.sweep(values, b), eids[b]),
                                   (block.sweep(values, np.arange(len(b))), eids[b]),
                                   (block.sweep(values, rows), eids[b[rows]])):
                        want = sweep(g.csr, values, e, h)
                        if not exact:
                            want = np.minimum(want, values[e])
                        assert got.tolist() == want.tolist(), (seed, exact)

    def test_frontier_mask(self, name, raw, h):
        """Lemma 4 is sound: after a sweep lowers ``old`` to ``new``, one
        more sweep leaves every edge outside the mask as it was. The mask
        lies inside the h-hop frontier, the edges with an endpoint within
        h hops of an endpoint of an edge the sweep lowered. Runs follow
        the sweeps from the h-support and from random vectors above it
        (any sweep's result is at most the h-support, so those lower too)."""
        g = Graph(raw)
        adj = adjacency(g.edges)
        every = np.arange(len(g.edges))
        sup = sweep(g.csr, np.full(len(g.edges), UNBOUNDED), every, h)
        for old in (sup, sup + g.random_values(name, top=3)):
            new = sweep(g.csr, old, every, h)
            while (new < old).any():
                mask = frontier_mask(g.csr, old, new, h, every)
                nxt = sweep(g.csr, new, every, h)
                assert (nxt[~mask] == new[~mask]).all()
                ends = {x for i in np.flatnonzero(new < old) for x in g.edges[i]}
                near = ends.union(*(bfs_within(adj, x, h) for x in ends))
                hop_frontier = [u in near or v in near for u, v in g.edges]
                assert not (mask & ~np.array(hop_frontier)).any()
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
                    nxt = sweep(g.csr, new, every, h)
                    assert (nxt[~mask] == new[~mask]).all(), (k, variant)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_in_task_schedule_reaches_the_fixpoint(self, name, raw, h, k,
                                                   monkeypatch):
        """Every variant's schedule ends at the peeling trussness; at h <= 2
        with :func:`sweep` and :func:`path_keys` refusing to run, since a
        task sweeps its witness index."""
        g = Graph(raw)
        expected = decompose_peeling(raw, h)
        if h <= 2:
            def refuse(*args):
                raise AssertionError("an expanding sweep ran at h <= 2")

            monkeypatch.setattr(paral, "sweep", refuse)
            monkeypatch.setattr(kernel, "path_keys", refuse)
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
    Paral+'s pruning changes none of Asyn's drops."""
    def sweeps(edges, variant):
        return schedule_states(Graph(edges).csr, 2, variant, 4)[1]

    toy = SMALL_GRAPHS["toy"]
    assert len(sweeps(toy, "asyn")) < len(sweeps(toy, "paral")) == 4
    yt = dataset_edges("YT").tolist()
    asyn, plus = sweeps(yt, "asyn"), sweeps(yt, "paral+")
    assert len(asyn) <= 8 and len(plus) <= 8
    assert [s.dropped for s in plus] == [s.dropped for s in asyn]
    assert len(sweeps(dataset_edges("GA").tolist(), "asyn")) <= 13


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
        path_keys(g.csr, np.zeros(3, dtype=np.int64), np.arange(3), 0)
