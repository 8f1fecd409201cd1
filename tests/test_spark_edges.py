"""Tests for the canonical edge and adjacency DataFrames."""
import numpy as np
import pandas as pd
import pytest

from repro.graph.edges import adjacency_df, edge_array, edges_df
from repro.pyref.graphs import adjacency, canonical_edges

from .graph_catalog import SMALL_GRAPHS


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


class TestEdgeArrayValidation:
    """Input that is not ``m`` pairs of integer ids raises instead of
    being re-read as other edges."""

    def test_three_columns(self):
        with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
            edge_array(np.array([[1, 2, 3], [4, 5, 6]]))

    def test_flat_list(self):
        with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
            edge_array([1, 2, 3, 4])

    def test_three_pandas_columns(self):
        pdf = pd.DataFrame({"u": [1, 4], "v": [2, 5], "w": [3, 6]})
        with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
            edge_array(pdf)

    def test_three_spark_columns(self, sparkf):
        df = sparkf.createDataFrame([(1, 2, 3), (4, 5, 6)], "u long, v long, w long")
        with pytest.raises(ValueError, match="2 columns"):
            edge_array(df)

    def test_fractional_ids(self):
        with pytest.raises(ValueError, match="integers"):
            edge_array([[0.5, 2.7], [1.2, 3.9]])

    def test_fractional_pandas_ids(self):
        pdf = pd.DataFrame({"u": [0.5, 1.2], "v": [2.7, 3.9]})
        with pytest.raises(ValueError, match="integers"):
            edge_array(pdf)

    def test_spark_double_columns(self, sparkf):
        df = sparkf.createDataFrame([(0.5, 2.7), (1.2, 3.9)], "u double, v double")
        with pytest.raises(ValueError, match="integers"):
            edge_array(df)

    def test_spark_null_ids(self, sparkf):
        df = sparkf.createDataFrame([(1, 2), (2, None)], "u long, v long")
        with pytest.raises(ValueError, match="integers"):
            edge_array(df)

    def test_edges_df_rejects_spark_double_columns(self, sparkf):
        df = sparkf.createDataFrame([(0.5, 2.7)], "u double, v double")
        with pytest.raises(ValueError, match="integers"):
            edges_df(sparkf, df)

    def test_empty_list_is_the_empty_graph(self):
        assert edge_array([]).shape == (0, 2)

    def test_integer_forms_agree(self, sparkf):
        pairs = [(2, 1), (1, 3), (3, 2), (1, 2)]
        expected = [[1, 2], [1, 3], [2, 3]]
        for form in (pairs, np.array(pairs, dtype=np.int32),
                     pd.DataFrame(pairs, columns=["u", "v"]),
                     sparkf.createDataFrame(pairs, "u int, v int")):
            assert edge_array(form).tolist() == expected
