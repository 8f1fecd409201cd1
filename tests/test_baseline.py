"""Tests for Base (Algorithm 1) against the definition-level reference."""
import pytest

from repro.core.baseline import INF, baseline_decompose
from repro.pyref import decompose_peeling

from .graph_catalog import SMALL_GRAPHS, random_graph


class TestBaselineCorrectness:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    @pytest.mark.parametrize("h", [1, 2])
    def test_catalog_graphs(self, name, h):
        edges = SMALL_GRAPHS[name]
        res = baseline_decompose(edges, h)
        assert not res.timed_out
        assert res.trussness == decompose_peeling(edges, h)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_random_graphs(self, seed, h):
        edges = random_graph(seed)
        res = baseline_decompose(edges, h)
        assert res.trussness == decompose_peeling(edges, h)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_toy_all_h(self, h):
        edges = SMALL_GRAPHS["toy"]
        assert baseline_decompose(edges, h).trussness == decompose_peeling(edges, h)

    def test_empty_graph(self):
        res = baseline_decompose([], 2)
        assert res.trussness == {}

    def test_reports_wall_time(self):
        res = baseline_decompose(SMALL_GRAPHS["toy"], 2)
        assert 0 <= res.seconds < 60


class TestBaselineBudget:
    def test_budget_exhaustion_reports_inf(self):
        edges = random_graph(0, n=60, p=0.2)
        res = baseline_decompose(edges, 3, budget_s=0.0)
        assert res.timed_out
        assert res.seconds == INF
        assert res.trussness is None

    def test_generous_budget_finishes(self):
        res = baseline_decompose(SMALL_GRAPHS["toy"], 2, budget_s=120.0)
        assert not res.timed_out


class TestInputForms:
    """Base takes every edge input ``decompose`` takes; a triangle given
    with reversed and repeated edges."""

    EDGES = [(2, 1), (1, 3), (3, 2), (1, 2)]
    EXPECTED = {(1, 2): 3, (1, 3): 3, (2, 3): 3}

    def test_from_list(self):
        assert baseline_decompose(self.EDGES, 1).trussness == self.EXPECTED

    def test_from_pandas(self):
        import pandas as pd

        pdf = pd.DataFrame(self.EDGES, columns=["src", "dst"])
        assert baseline_decompose(pdf, 1).trussness == self.EXPECTED

    def test_from_spark(self, sparkf):
        df = sparkf.createDataFrame(self.EDGES, "u long, v long")
        assert baseline_decompose(df, 1).trussness == self.EXPECTED
