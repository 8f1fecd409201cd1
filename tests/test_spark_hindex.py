"""Tests for the ℋ(·) window aggregation and the path-key dataflow DP."""
import random

import pandas as pd
import pytest

from repro.core.hindex import h_index_agg, path_keys
from repro.graph.edges import adjacency_df, edges_df
from repro.pyref.graphs import adjacency, canonical_edges
from repro.pyref.hindex import h_index
from repro.pyref.truss import _path_keys as ref_path_keys

from .graph_catalog import SMALL_GRAPHS, random_graph


class TestHIndexAgg:
    def test_single_group(self, sparkf):
        df = sparkf.createDataFrame(
            pd.DataFrame({"eid": [1] * 5, "value": [10, 8, 5, 4, 3]})
        )
        assert h_index_agg(df).collect()[0].hindex == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_many_groups_match_reference(self, sparkf, seed):
        rng = random.Random(seed)
        rows = []
        expected = {}
        for g in range(12):
            vals = [rng.randint(0, 15) for _ in range(rng.randint(1, 12))]
            expected[g] = h_index(vals)
            rows += [(g, v) for v in vals]
        df = sparkf.createDataFrame(pd.DataFrame(rows, columns=["eid", "value"]))
        got = {r.eid: r.hindex for r in h_index_agg(df).collect()}
        assert got == expected

    def test_all_zero_values(self, sparkf):
        df = sparkf.createDataFrame(
            pd.DataFrame({"eid": [1, 1, 1], "value": [0, 0, 0]})
        )
        assert h_index_agg(df).collect()[0].hindex == 0


def _adj_val(sparkf, edges, values):
    """Adjacency annotated with per-edge values from a {(u,v): val} map."""
    e = edges_df(sparkf, edges)
    vals = sparkf.createDataFrame(
        pd.DataFrame(
            [(u, v, val) for (u, v), val in values.items()],
            columns=["src", "dst", "hval"],
        )
    )
    hval = e.join(vals, on=["src", "dst"]).select("eid", "hval")
    return adjacency_df(e).join(hval, on="eid").select("a", "b", "hval")


def _ref_all_path_keys(edges, h, values):
    adj = adjacency(canonical_edges(edges))
    out = {}
    for a in adj:
        for w, key in ref_path_keys(adj, a, h, values).items():
            out[(a, w)] = key
    return out


class TestPathKeys:
    @pytest.mark.parametrize("name", ["path5", "cycle6", "toy", "petersen"])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_matches_reference(self, sparkf, name, h):
        edges = canonical_edges(SMALL_GRAPHS[name])
        rng = random.Random(name)
        values = {e: rng.randint(0, 9) for e in edges}
        df = path_keys(_adj_val(sparkf, edges, values), h)
        got = {(r.a, r.w): r.pkey for r in df.collect()}
        assert got == _ref_all_path_keys(edges, h, values)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_random(self, sparkf, seed):
        edges = canonical_edges(random_graph(seed))
        rng = random.Random(seed)
        values = {e: rng.randint(0, 6) for e in edges}
        df = path_keys(_adj_val(sparkf, edges, values), 2)
        got = {(r.a, r.w): r.pkey for r in df.collect()}
        assert got == _ref_all_path_keys(edges, 2, values)

    def test_longer_path_can_beat_direct_edge(self, sparkf):
        """max-min semantics: a 2-hop detour with high values must win
        over a direct low-value edge."""
        edges = [(0, 1), (0, 2), (1, 2)]
        values = {(0, 1): 1, (0, 2): 5, (1, 2): 5}
        df = path_keys(_adj_val(sparkf, edges, values), 2)
        got = {(r.a, r.w): r.pkey for r in df.collect()}
        assert got[(0, 1)] == 5  # via vertex 2, not the direct edge

    def test_invalid_h_raises(self, sparkf):
        with pytest.raises(ValueError, match=">= 1"):
            path_keys(_adj_val(sparkf, [(0, 1)], {(0, 1): 1}), 0)
