"""Tests for the canonical edge array and the edge and adjacency
DataFrames built from it."""
import numpy as np
import pandas as pd
import pytest

from repro.graph.edges import adjacency_df, edge_array, edges_df
from repro.graph.hops import hop_pairs_df
from repro.graph.triads import h_support_df
from repro.pyref import all_h_supports
from repro.pyref.graphs import adjacency, canonical_edges

from .graph_catalog import SMALL_GRAPHS


class TestEdgeArray:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_matches_reference_canonicalization(self, name):
        got = [tuple(e) for e in edge_array(SMALL_GRAPHS[name]).tolist()]
        assert got == canonical_edges(SMALL_GRAPHS[name])

    def test_accepts_pandas(self):
        pdf = pd.DataFrame({"u": [2, 1, 3], "v": [1, 2, 3]})
        assert edge_array(pdf).tolist() == [[1, 2]]

    def test_accepts_spark_df(self, sparkf):
        raw = sparkf.createDataFrame(pd.DataFrame({"x": [5, 5], "y": [1, 1]}))
        assert edge_array(raw).tolist() == [[1, 5]]


class TestEdgesDf:
    def test_eid_is_the_edge_array_row(self, sparkf):
        rows = edges_df(sparkf, SMALL_GRAPHS["toy"]).collect()
        expected = enumerate(edge_array(SMALL_GRAPHS["toy"]).tolist())
        assert sorted((r.eid, [r.src, r.dst]) for r in rows) == list(expected)

    def test_accepts_ids_beyond_32_bits(self, sparkf):
        """(1, 2**32 + 5) and (2, 5) are two edges, though
        ``2**32 * src + dst`` is the same for both."""
        big = 2**32 + 5
        edges = [(1, big), (2, 5), (1, 2), (2, big), (5, big), (1, 5)]
        e = edges_df(sparkf, sparkf.createDataFrame(edges, "u long, v long"))
        assert e.select("eid").distinct().count() == len(edges)
        got = h_support_df(e, hop_pairs_df(e, 2)).collect()
        assert {(r.src, r.dst): r.support for r in got} == all_h_supports(edges, 2)


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

    def test_spark_null_ids(self, arrow_sparkf):
        df = arrow_sparkf.createDataFrame([(1, 2), (2, None)], "u long, v long")
        with pytest.raises(ValueError, match=r"must be integers, got float64 "
                           r"\(a Spark table with null ids reads as float64\)"):
            edge_array(df)

    @pytest.mark.parametrize(("rows", "schema"), [
        ([(0.5, 2.7)], "u double, v double"),
        ([(1, 2), (2, None), (3, 1)], "u long, v long"),
    ], ids=["double", "null"])
    def test_edges_df_rejects_spark_double_columns(self, sparkf, rows, schema):
        with pytest.raises(ValueError, match="integers"):
            edges_df(sparkf, sparkf.createDataFrame(rows, schema))

    def test_unsigned_ids_beyond_int64(self):
        arr = np.array([[1, 2**64 - 1], [3, 2**63 + 2]], dtype=np.uint64)
        with pytest.raises(ValueError, match="int64"):
            edge_array(arr)

    @pytest.mark.parametrize("big", [2**64 - 1, 2**70, -2**70],
                             ids=["uint64-max", "2^70", "-2^70"])
    def test_python_ids_beyond_int64(self, big):
        """numpy reads these lists as float64 or object, not as integers."""
        with pytest.raises(ValueError, match="int64"):
            edge_array([[1, big]])

    def test_object_array_of_int64_ids(self):
        hi = np.iinfo(np.int64).max
        arr = np.array([[hi, 1], [3, 2]], dtype=object)
        assert edge_array(arr).tolist() == [[1, hi], [2, 3]]

    def test_empty_list_is_the_empty_graph(self):
        assert edge_array([]).shape == (0, 2)

    def test_integer_forms_agree(self, arrow_sparkf):
        pairs = [(2, 1), (1, 3), (3, 2), (1, 2)]
        expected = [[1, 2], [1, 3], [2, 3]]
        for form in (pairs, np.array(pairs, dtype=np.int32),
                     pd.DataFrame(pairs, columns=["u", "v"]),
                     arrow_sparkf.createDataFrame(pairs, "u int, v int")):
            assert edge_array(form).tolist() == expected
