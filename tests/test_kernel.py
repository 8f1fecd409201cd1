"""The numpy sweep kernel of Algorithm 3 against the pure-Python
references, without Spark."""
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernel import (
    UNBOUNDED, build_csr, frontier_mask, h_index, path_keys, sweep,
)
from repro.pyref import all_h_supports
from repro.pyref.graphs import adjacency, bfs_within, canonical_edges
from repro.pyref.hindex import h_index as ref_h_index
from repro.pyref.truss import _path_keys as ref_path_keys

from .graph_catalog import SMALL_GRAPHS, random_graph

GRAPHS = [(name, SMALL_GRAPHS[name]) for name in sorted(SMALL_GRAPHS)] + [
    (f"random{seed}", random_graph(seed)) for seed in range(4)
]


class Graph:
    """A test graph on original ids and its dense CSR."""

    def __init__(self, raw):
        self.edges = canonical_edges(raw)
        self.vertex_ids, dense = np.unique(self.edges, return_inverse=True)
        dense = dense.reshape(-1, 2)
        self.csr = build_csr(dense[:, 0], dense[:, 1], len(self.vertex_ids))

    def random_values(self, seed, top=6):
        rng = random.Random(seed)
        return np.array([rng.randint(0, top) for _ in self.edges], dtype=np.int64)

    def as_map(self, values):
        return dict(zip(self.edges, values.tolist()))


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
        g = Graph(raw)
        m = len(g.edges)
        sup = sweep(g.csr, np.full(m, UNBOUNDED), np.arange(m), h)
        assert g.as_map(sup) == all_h_supports(raw, h)

    def test_sweep_of_a_subset(self, name, raw, h):
        """One sweep, for every other edge, matches Algorithm 3 applied
        edge by edge to the same H vector."""
        g = Graph(raw)
        values = g.random_values(name)
        eids = np.arange(0, len(g.edges), 2)
        got = sweep(g.csr, values, eids, h).tolist()
        adj, vmap = adjacency(g.edges), g.as_map(values)
        ref = []
        for i in eids.tolist():
            u, v = g.edges[i]
            delta = (set(bfs_within(adj, u, h)) & set(bfs_within(adj, v, h))) - {u, v}
            pu = ref_path_keys(adj, u, h, vmap, targets=delta)
            pv = ref_path_keys(adj, v, h, vmap, targets=delta)
            ref.append(ref_h_index(min(pu[w], pv[w]) for w in delta))
        assert got == ref

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
                mask = frontier_mask(g.csr, old, new, h)
                nxt = sweep(g.csr, new, every, h)
                assert (nxt[~mask] == new[~mask]).all()
                ends = {x for i in np.flatnonzero(new < old) for x in g.edges[i]}
                near = ends.union(*(bfs_within(adj, x, h) for x in ends))
                hop_frontier = [u in near or v in near for u, v in g.edges]
                assert not (mask & ~np.array(hop_frontier)).any()
                old, new = new, nxt


@given(st.lists(st.lists(st.integers(0, 12), max_size=12), max_size=6))
def test_h_index_matches_reference(groups):
    values = np.array([x for grp in groups for x in grp], dtype=np.int64)
    owner = np.array([i for i, grp in enumerate(groups) for _ in grp], dtype=np.int64)
    got = h_index(values, owner, len(groups)).tolist()
    assert got == [ref_h_index(grp) for grp in groups]


def test_h_index_of_inf_counts():
    got = h_index(np.full(3, UNBOUNDED), np.zeros(3, dtype=np.int64), 2)
    assert got.tolist() == [3, 0]


def test_invalid_h_raises():
    g = Graph(SMALL_GRAPHS["triangle"])
    with pytest.raises(ValueError, match=">= 1"):
        path_keys(g.csr, np.zeros(3, dtype=np.int64), np.arange(3), 0)
