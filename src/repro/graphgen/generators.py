"""Deterministic synthetic graph generators (NumPy, seeded).

All generators return a canonical undirected simple edge list as an
``(m, 2)`` int64 ndarray with ``src < dst``, self-loops removed and
duplicates collapsed, sorted lexicographically. They aim for a *target*
edge count; collision removal can land slightly under it, which is fine
for the reproduction (|E| is matched to within a few percent). A surplus
is dropped by a uniform subsample, so no vertex range is favoured.
"""
import numpy as np

# Power-law exponent of powerlaw_configuration's degree sequence.
GAMMA = 2.5
# R-MAT's quadrant probabilities (a, b, c, d), the Graph500 values.
RMAT_PROBS = (0.57, 0.19, 0.19, 0.05)


def _canonicalize(g: np.random.Generator, src: np.ndarray, dst: np.ndarray,
                  m: int) -> np.ndarray:
    """The distinct undirected edges of ``(src, dst)``, self-loops dropped,
    sorted; a surplus over ``m`` is dropped by a uniform draw with ``g``
    (keeping the first ``m`` would keep the lowest source ids)."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0).astype(np.int64)
    if len(pairs) > m:
        pairs = pairs[np.sort(g.choice(len(pairs), size=m, replace=False))]
    return pairs


def erdos_renyi(n: int, m: int, seed: int = 0) -> np.ndarray:
    """G(n, m)-style uniform random graph with ~m edges."""
    g = np.random.default_rng(seed)
    # Oversample to survive dedup/self-loop removal.
    k = int(m * 1.3) + 16
    src = g.integers(0, n, k)
    dst = g.integers(0, n, k)
    return _canonicalize(g, src, dst, m)


def powerlaw_configuration(n: int, m: int, seed: int = 0) -> np.ndarray:
    """Configuration-model graph with a power-law degree sequence.

    Stubs are drawn with probability ∝ rank^(-1/(GAMMA-1)) (the inverse
    CDF of a power law), paired uniformly at random, then simplified.
    Models protein-interaction-style graphs (heavy skew, low density).
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (GAMMA - 1.0))
    w /= w.sum()
    k = int(m * 1.35) + 16
    src = g.choice(n, size=k, p=w)
    dst = g.choice(n, size=k, p=w)
    return _canonicalize(g, src, dst, m)


def rmat(n: int, m: int, seed: int = 0) -> np.ndarray:
    """R-MAT / Kronecker-style generator (web/co-purchase-like graphs).

    Each edge picks one quadrant per bit level with probabilities
    :data:`RMAT_PROBS`; vertices outside ``[0, n)`` are redrawn by modulo.
    """
    g = np.random.default_rng(seed)
    scale = max(1, int(np.ceil(np.log2(max(n, 2)))))
    k = int(m * 1.4) + 16
    src = np.zeros(k, dtype=np.int64)
    dst = np.zeros(k, dtype=np.int64)
    cum = np.cumsum(RMAT_PROBS)
    for _ in range(scale):
        r = g.random(k)
        quad = np.searchsorted(cum, r)
        src = (src << 1) | (quad >> 1)
        dst = (dst << 1) | (quad & 1)
    src %= n
    dst %= n
    return _canonicalize(g, src, dst, m)


def preferential_attachment(n: int, m: int, seed: int = 0) -> np.ndarray:
    """Barabási–Albert-style growth (repeated-endpoints sampling).

    Each arriving vertex attaches ``round(m / n)`` (>= 1) edges to
    endpoints drawn uniformly from the current edge-endpoint multiset —
    the standard O(m) trick that realizes degree-proportional sampling.
    """
    g = np.random.default_rng(seed)
    per = max(1, round(m / max(n - 1, 1)))
    src_list = [0]
    dst_list = [1]  # seed edge
    targets = [0, 1]
    for v in range(2, n):
        picks = g.integers(0, len(targets), per)
        for p in picks:
            u = targets[p]
            src_list.append(v)
            dst_list.append(u)
            targets.append(u)
        targets.extend([v] * per)
    return _canonicalize(
        g, np.asarray(src_list, dtype=np.int64), np.asarray(dst_list, dtype=np.int64), m
    )
