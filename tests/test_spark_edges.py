"""Tests for the canonical edge / adjacency / degree DataFrames."""
import pandas as pd
import pytest

from repro.graph.edges import adjacency_df, degrees_df, edges_df
from repro.pyref.graphs import adjacency, canonical_edges

from .graph_catalog import SMALL_GRAPHS, random_graph


def _collect_edges(df):
    return sorted((r.src, r.dst) for r in df.collect())


class TestEdgesDf:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_matches_reference_canonicalization(self, sparkf, name):
        got = _collect_edges(edges_df(sparkf, SMALL_GRAPHS[name]))
        assert got == canonical_edges(SMALL_GRAPHS[name])

    def test_accepts_pandas(self, sparkf):
        pdf = pd.DataFrame({"u": [2, 1, 3], "v": [1, 2, 3]})
        assert _collect_edges(edges_df(sparkf, pdf)) == [(1, 2)]

    def test_accepts_spark_df(self, sparkf):
        raw = sparkf.createDataFrame(pd.DataFrame({"x": [5, 5], "y": [1, 1]}))
        assert _collect_edges(edges_df(sparkf, raw)) == [(1, 5)]

    def test_eid_is_unique_and_packed(self, sparkf):
        df = edges_df(sparkf, SMALL_GRAPHS["toy"])
        rows = df.collect()
        eids = [r.eid for r in rows]
        assert len(set(eids)) == len(eids)
        for r in rows:
            assert r.eid == (r.src << 32) + r.dst

    def test_rejects_oversized_vertices(self, sparkf):
        with pytest.raises(ValueError, match="32 bits"):
            edges_df(sparkf, [(0, 1 << 33)])

    def test_rejects_oversized_vertices_spark(self, sparkf):
        """(1, 2**32 + 5) would pack to the eid of (2, 5)."""
        raw = sparkf.createDataFrame([(1, 2**32 + 5), (2, 5)], "u long, v long")
        df = edges_df(sparkf, raw)
        with pytest.raises(Exception, match="32 bits"):
            df.collect()


class TestAdjacencyDf:
    @pytest.mark.parametrize("name", ["triangle", "toy", "petersen", "dirty"])
    def test_symmetric_closure(self, sparkf, name):
        e = edges_df(sparkf, SMALL_GRAPHS[name])
        adj = adjacency_df(e)
        ref = adjacency(canonical_edges(SMALL_GRAPHS[name]))
        got = {}
        for r in adj.collect():
            got.setdefault(r.a, set()).add(r.b)
        assert got == ref

    def test_row_count_is_twice_edges(self, sparkf):
        e = edges_df(sparkf, SMALL_GRAPHS["toy"])
        assert adjacency_df(e).count() == 2 * e.count()


class TestDegreesDf:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, sparkf, seed):
        edges = random_graph(seed)
        ref = {v: len(n) for v, n in adjacency(canonical_edges(edges)).items()}
        got = {r.v: r.degree for r in degrees_df(edges_df(sparkf, edges)).collect()}
        assert got == ref
