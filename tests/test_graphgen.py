"""Tests for the synthetic graph substrate: generators, the 6 KONECT
stand-ins (Table 1), and the reconstructed toy example (Figures 1-3)."""
import numpy as np
import pytest

from repro.graphgen import (
    DATASETS,
    dataset_edges,
    erdos_renyi,
    powerlaw_configuration,
    preferential_attachment,
    rmat,
    toy_edges,
)
from repro.pyref import (
    all_h_supports,
    decompose_peeling,
    serial_hindex_decompose,
)
from repro.pyref.graphs import adjacency, canonical_edges

GENERATORS = {
    "er": lambda: erdos_renyi(300, 600, seed=1),
    "powerlaw": lambda: powerlaw_configuration(300, 600, seed=1),
    "rmat": lambda: rmat(256, 600, seed=1),
    "pa": lambda: preferential_attachment(300, 600, seed=1),
}


class TestGenerators:
    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    def test_canonical_output(self, gen):
        arr = GENERATORS[gen]()
        assert arr.ndim == 2 and arr.shape[1] == 2
        assert (arr[:, 0] < arr[:, 1]).all(), "src < dst everywhere"
        assert len(np.unique(arr, axis=0)) == len(arr), "no duplicate edges"

    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    def test_deterministic(self, gen):
        a, b = GENERATORS[gen](), GENERATORS[gen]()
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    def test_edge_count_near_target(self, gen):
        arr = GENERATORS[gen]()
        assert 0.8 * 600 <= len(arr) <= 600

    def test_different_seeds_differ(self):
        assert not np.array_equal(erdos_renyi(300, 600, seed=1),
                                  erdos_renyi(300, 600, seed=2))

    def test_powerlaw_is_skewed(self):
        """Power-law stand-ins must have heavier top-degrees than ER."""
        deg = lambda arr: sorted(
            (len(s) for s in adjacency(canonical_edges(map(tuple, arr))).values()),
            reverse=True,
        )
        pl, er = deg(GENERATORS["powerlaw"]()), deg(GENERATORS["er"]())
        assert pl[0] > 2 * er[0]

    def test_pa_is_connected_ish(self):
        """Preferential attachment grows one component."""
        arr = preferential_attachment(200, 400, seed=3)
        adj = adjacency(canonical_edges(map(tuple, arr)))
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) >= 0.95 * len(adj)


class TestDatasets:
    @pytest.mark.parametrize("key", sorted(DATASETS))
    def test_full_scale_matches_paper_sizes(self, key):
        """T1: |E| within 12% of Table 1 at scale=1.0 (|V| bounded by it)."""
        spec = DATASETS[key]
        # Generating AM/AN at full size is slow-ish but fine once here.
        edges = dataset_edges(key, scale=1.0)
        assert len(edges) >= 0.88 * spec.m_paper
        assert len(edges) <= spec.m_paper
        n = len(np.unique(edges))
        assert n <= spec.n_paper

    @pytest.mark.parametrize("key", sorted(DATASETS))
    def test_bench_scale_deterministic(self, key):
        assert np.array_equal(dataset_edges(key), dataset_edges(key))

    @pytest.mark.parametrize("key", sorted(DATASETS))
    def test_bench_scale_is_scaled(self, key):
        spec = DATASETS[key]
        edges = dataset_edges(key)
        assert 0 < len(edges) <= spec.m_paper * spec.bench_scale + 8

    @pytest.mark.parametrize("key", sorted(DATASETS))
    def test_bench_scale_spans_the_vertex_ids(self, key):
        """Surplus edges are dropped by a uniform subsample, so the
        largest low endpoint comes near n. Keeping the first m sorted
        edges stopped it at 287 of YT's 1,870 vertex ids. The bound is
        0.8 n because YT's power-law tail is sparse: even an unbiased
        draw can stop short of 0.9 n (this one at 1,674)."""
        spec = DATASETS[key]
        n = max(4, int(spec.n_paper * spec.bench_scale))
        assert dataset_edges(key)[:, 0].max() >= 0.8 * n

    @pytest.mark.parametrize("key", sorted(DATASETS))
    def test_bench_scale_degree_skew(self, key):
        """DESIGN substitution 5's split: the power-law, R-MAT and
        preferential-attachment stand-ins are skewed (maximum over mean
        degree 32, 54, 46 and 42 for YT, VL, AM and AN), the uniform ones
        are not (3.9 and 2.9 for SC and GA)."""
        deg = np.unique(dataset_edges(key), return_counts=True)[1]
        skew = deg.max() / deg.mean()
        assert skew <= 5 if DATASETS[key].family == "er" else skew >= 10

    def test_registry_has_the_six_paper_datasets(self):
        assert sorted(DATASETS) == ["AM", "AN", "GA", "SC", "VL", "YT"]


class TestToyGraph:
    """The reconstruction must satisfy everything the paper states about
    its running example (DESIGN.md substitution 6)."""

    def test_sizes(self):
        edges = toy_edges()
        assert len(edges) == 20
        assert len({v for e in edges for v in e}) == 14

    def test_is_canonical(self):
        edges = toy_edges()
        assert canonical_edges(edges) == sorted(edges)

    def test_h1_decomposition_is_2_and_3_truss_only(self):
        t = decompose_peeling(toy_edges(), 1)
        assert set(t.values()) == {2, 3}

    def test_h2_decomposition_is_4_5_6(self):
        t = decompose_peeling(toy_edges(), 2)
        assert set(t.values()) == {4, 5, 6}

    def test_h2_class_sizes_near_figure(self):
        """Paper figure: 11 / 8 / 1 edges at k = 6 / 5 / 4; ours 10 / 9 / 1."""
        t = decompose_peeling(toy_edges(), 2)
        counts = {k: sum(1 for v in t.values() if v == k) for k in (4, 5, 6)}
        assert counts[4] == 1
        assert 8 <= counts[5] <= 9
        assert 10 <= counts[6] <= 11

    def test_min_support_edge_is_example2(self):
        """Example 2: the first peeled edge has 2-support 2, trussness 4."""
        sup = all_h_supports(toy_edges(), 2)
        t = decompose_peeling(toy_edges(), 2)
        emin = min(sup, key=sup.get)
        assert sup[emin] == 2
        assert t[emin] == 4

    def test_hierarchy_is_nested(self):
        t = decompose_peeling(toy_edges(), 2)
        tiers = [{e for e, v in t.items() if v >= k} for k in (4, 5, 6)]
        assert tiers[0] > tiers[1] > tiers[2] > set()

    def test_converges_in_four_sweeps(self):
        """Figure 3 shows convergence after four update rounds."""
        assert serial_hindex_decompose(toy_edges(), 2)[1] == 4
