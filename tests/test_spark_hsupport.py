"""h-support tests: the Spark dataflow against the reference BFS."""
import pytest

from repro.graph.edges import edges_df
from repro.graph.hops import hop_pairs_df
from repro.graph.triads import h_support_df, triads_df
from repro.pyref import all_h_supports
from repro.pyref.graphs import adjacency, canonical_edges
from repro.pyref.hsupport import common_h_neighbors

from .graph_catalog import SMALL_GRAPHS, random_graph


def _support_df(sparkf, edges, h):
    e = edges_df(sparkf, edges)
    return h_support_df(e, hop_pairs_df(e, h))


class TestHSupportVsReference:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_catalog(self, sparkf, name, h):
        edges = SMALL_GRAPHS[name]
        got = {
            (r.src, r.dst): r.support
            for r in _support_df(sparkf, edges, h).collect()
        }
        assert got == all_h_supports(edges, h)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_random(self, sparkf, seed, h):
        edges = random_graph(seed)
        got = {
            (r.src, r.dst): r.support
            for r in _support_df(sparkf, edges, h).collect()
        }
        assert got == all_h_supports(edges, h)

    def test_zero_support_edges_kept(self, sparkf):
        got = _support_df(sparkf, SMALL_GRAPHS["single_edge"], 2).collect()
        assert [(r.src, r.dst, r.support) for r in got] == [(3, 7, 0)]


class TestTriads:
    @pytest.mark.parametrize("name", ["triangle", "toy", "cycle6"])
    @pytest.mark.parametrize("h", [1, 2])
    def test_triad_members_match_reference(self, sparkf, name, h):
        edges = canonical_edges(SMALL_GRAPHS[name])
        e = edges_df(sparkf, edges)
        t = triads_df(e, hop_pairs_df(e, h))
        got = {}
        for r in t.collect():
            got.setdefault((r.src, r.dst), set()).add(r.w)
        adj = adjacency(edges)
        ref = {
            (u, v): common_h_neighbors(adj, u, v, h) for u, v in edges
        }
        ref = {k: v for k, v in ref.items() if v}
        assert got == ref

    def test_h1_triads_are_triangles(self, sparkf):
        e = edges_df(sparkf, SMALL_GRAPHS["k4"])
        t = triads_df(e, hop_pairs_df(e, 1))
        # K4: each of the 6 edges closes a triangle with the other 2 vertices.
        assert t.count() == 12
