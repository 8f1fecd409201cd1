"""Tests for Base (Algorithm 1) against the definition-level reference."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.baseline import baseline_decompose
from repro.pyref import decompose_peeling

from .graph_catalog import SMALL_GRAPHS, random_graph


class TestBaselineCorrectness:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    @pytest.mark.parametrize("h", [1, 2])
    def test_catalog_graphs(self, name, h):
        edges = SMALL_GRAPHS[name]
        assert baseline_decompose(edges, h) == decompose_peeling(edges, h)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_random_graphs(self, seed, h):
        edges = random_graph(seed)
        assert baseline_decompose(edges, h) == decompose_peeling(edges, h)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_toy_all_h(self, h):
        edges = SMALL_GRAPHS["toy"]
        assert baseline_decompose(edges, h) == decompose_peeling(edges, h)

    def test_empty_graph(self):
        assert baseline_decompose([], 2) == {}


class TestBaselineBudget:
    def test_budget_exhaustion_reports_inf(self):
        """Past its budget Base raises, and the harness reports INF."""
        edges = random_graph(0, n=60, p=0.2)
        with pytest.raises(TimeoutError, match="INF"):
            baseline_decompose(edges, 3, budget_s=0.0)

    def test_generous_budget_finishes(self):
        edges = SMALL_GRAPHS["toy"]
        assert (baseline_decompose(edges, 2, budget_s=120.0)
                == decompose_peeling(edges, 2))


class TestInputForms:
    """Base takes every edge input ``decompose`` takes; a triangle given
    with reversed and repeated edges."""

    EDGES = [(2, 1), (1, 3), (3, 2), (1, 2)]
    EXPECTED = {(1, 2): 3, (1, 3): 3, (2, 3): 3}

    def test_from_list(self):
        assert baseline_decompose(self.EDGES, 1) == self.EXPECTED

    def test_from_pandas(self):
        import pandas as pd

        pdf = pd.DataFrame(self.EDGES, columns=["src", "dst"])
        assert baseline_decompose(pdf, 1) == self.EXPECTED

    def test_from_spark(self, sparkf):
        df = sparkf.createDataFrame(self.EDGES, "u long, v long")
        assert baseline_decompose(df, 1) == self.EXPECTED


def test_core_loads_no_reference_oracle():
    """Base is tested against ``repro.pyref``, so it shares none of its
    code: importing ``repro.core`` and its entry point, which loads every
    module a call runs, loads no ``repro.pyref`` module. Nor does it load
    a dataflow reference layer, which no call runs."""
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    dataflow = ("repro.graph.hops", "repro.graph.triads", "repro.core.hindex")
    code = ("import sys; from repro.core import decompose; "
            "print([m for m in sys.modules if m.startswith('repro.pyref') "
            f"or m in {dataflow!r}])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
