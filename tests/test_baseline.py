"""Tests for Base (Algorithm 1) against the definition-level reference."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import baseline
from repro.core.baseline import baseline_decompose
from repro.core.kernel import build_csr
from repro.graph.edges import edge_array
from repro.pyref import decompose_peeling

from .graph_catalog import SMALL_GRAPHS, random_graph


def base(edges, h, budget_s=None):
    """Base's trussness of the raw ``edges``, run on the CSR that
    ``decompose`` builds from them, as a ``{(src, dst): trussness}`` dict."""
    pairs = edge_array(edges)
    trussness = baseline_decompose(build_csr(pairs), h, budget_s)
    assert trussness.dtype == np.int64 and trussness.shape == (len(pairs),)
    return dict(zip(map(tuple, pairs.tolist()), trussness.tolist()))


class TestBaselineCorrectness:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    @pytest.mark.parametrize("h", [1, 2])
    def test_catalog_graphs(self, name, h):
        edges = SMALL_GRAPHS[name]
        assert base(edges, h) == decompose_peeling(edges, h)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_random_graphs(self, seed, h):
        edges = random_graph(seed)
        assert base(edges, h) == decompose_peeling(edges, h)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_toy_all_h(self, h):
        edges = SMALL_GRAPHS["toy"]
        assert base(edges, h) == decompose_peeling(edges, h)

    def test_empty_graph(self):
        assert base([], 2) == {}


class TestBaselineBudget:
    def test_budget_exhaustion_reports_inf(self):
        """Past its budget Base raises, and the harness reports INF."""
        edges = random_graph(0, n=60, p=0.2)
        with pytest.raises(TimeoutError, match="INF"):
            base(edges, 3, budget_s=0.0)

    def test_budget_bounds_initial_keys(self, monkeypatch):
        """The budget is checked before each initial key, so a spent
        budget raises before Base builds its 2m initial balls."""
        calls = []
        ball = baseline._ball
        monkeypatch.setattr(baseline, "_ball",
                            lambda *a: calls.append(a) or ball(*a))
        edges = random_graph(0, n=60, p=0.2)
        with pytest.raises(TimeoutError, match="INF"):
            base(edges, 2, budget_s=0.0)
        assert len(calls) <= 2

    def test_generous_budget_finishes(self):
        edges = SMALL_GRAPHS["toy"]
        assert base(edges, 2, budget_s=120.0) == decompose_peeling(edges, 2)


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
