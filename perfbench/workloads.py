"""Benchmark-owned input graphs and the workload table.

The graphs are generated here, not by ``repro.graphgen``, so a change to
the program's own stand-in generators cannot change the benchmark's
inputs between a parent commit and a change.

Each workload's *structure* comes from a fixed generator seed; the run's
``--seed`` draws a vertex relabelling and an edge order on top of it.
The decomposition's answer and its sweep count are invariant under
relabelling, so runs with different seeds measure the same amount of
work laid out differently across Spark partitions. Letting the seed
redraw the structure instead moves the sweep count (7 to 9 sync sweeps
across generator seeds at the Yeast size), and with it every call time,
by more than the bounds the benchmark holds the program to.
"""
import hashlib
from dataclasses import dataclass

import numpy as np


def _canonical(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def _subsample(rng: np.random.Generator, pairs: np.ndarray, m: int) -> np.ndarray:
    """Exactly ``m`` edges drawn uniformly from ``pairs``, so no vertex
    range is favoured (truncating a sorted list keeps the low ids)."""
    if len(pairs) < m:
        raise ValueError(f"generator produced {len(pairs)} edges, fewer than {m}")
    return pairs[np.sort(rng.choice(len(pairs), size=m, replace=False))]


def powerlaw_graph(n: int, m: int, seed: int, gamma: float = 2.5) -> np.ndarray:
    """Configuration-style graph: both endpoints of each candidate edge
    are drawn with probability ∝ rank^(-1/(gamma-1)), then simplified and
    subsampled to exactly ``m`` edges."""
    rng = np.random.default_rng(seed)
    w = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (gamma - 1.0))
    w /= w.sum()
    k = 2 * m + 64
    return _subsample(rng, _canonical(rng.choice(n, k, p=w), rng.choice(n, k, p=w)), m)


def uniform_graph(n: int, m: int, seed: int) -> np.ndarray:
    """Uniform random (Erdős–Rényi G(n, m)) graph with exactly ``m`` edges."""
    rng = np.random.default_rng(seed)
    k = 2 * m + 64
    return _subsample(rng, _canonical(rng.integers(0, n, k), rng.integers(0, n, k)), m)


def relabel(edges: np.ndarray, seed: int) -> np.ndarray:
    """The same graph under a seeded vertex permutation, as canonical
    ``(u, v)`` rows (``u < v``) in a seeded random order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(int(edges.max()) + 1)
    out = np.sort(perm[edges], axis=1)
    return out[rng.permutation(len(out))].astype(np.int64)


def digest(edges: np.ndarray) -> str:
    """Order-independent SHA-256 prefix of a canonical edge list."""
    rows = np.unique(np.sort(np.asarray(edges, dtype=np.int64), axis=1), axis=0)
    return hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a graph family and size, and ``h``."""

    name: str
    family: str  # "powerlaw" | "uniform" | "toy"
    n: int
    m: int
    structure_seed: int
    h: int
    why: str

    def edges(self, seed: int) -> np.ndarray:
        if self.family == "toy":
            from repro.graphgen.toy import toy_edges

            base = np.array(toy_edges(), dtype=np.int64)
        else:
            make = powerlaw_graph if self.family == "powerlaw" else uniform_graph
            base = make(self.n, self.m, self.structure_seed)
        return relabel(base, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "yt-h2", "powerlaw", 1_870, 2_227, 3, 2,
            "Yeast-sized power-law graph, h=2: 7 sweeps of fixed per-sweep cost; "
            "the h-hop frontier always covers >50% of edges, so Paral+ must equal Paral",
        ),
        Workload(
            "ga-h2", "uniform", 800, 1_200, 1, 2,
            "Gnutella-family uniform graph, h=2: 10 sweeps with a long tail of few "
            "changes, where Paral+ restricts its last 4 sweeps to the frontier",
        ),
    )
}

# The 14-vertex running example of the paper, for --smoke.
SMOKE = Workload(
    "smoke", "toy", 14, 20, 0, 1, "schema check on the paper's toy graph"
)
