"""Algorithm 3 as a numpy kernel over CSR adjacency.

One call of :func:`sweep` computes the new H-value of a set of edges
from the current H vector, the way one thread of the paper's §4.2 does
for its block of edges:

1. bottleneck path keys ``P(x, w)`` (Definition 6) from every endpoint
   ``x`` of the edges, by ``h`` rounds of max-min relaxation over the
   CSR; each endpoint is expanded once per call however many of the
   edges share it;
2. ``Δ(e)``, the common h-neighbours of ``e = (u, v)``, as the
   intersection of the two reach sets (a source never reaches itself,
   so ``u`` and ``v`` drop out on their own);
3. ``ℋ`` of ``min(P(u, w), P(v, w))`` over ``w ∈ Δ(e)``.

Vertices are dense ids ``0..n-1`` and edges dense ids ``0..m-1``. With
every H-value at :data:`UNBOUNDED`, ``ℋ`` of ``|Δ(e)|`` copies of it is
``|Δ(e)|``, so the same call computes the h-support ``H^(0)``.

Nothing here touches Spark. ``repro.core.paral``'s tasks run :func:`sweep`
on the sub-blocks of the edges they own, and Paral+'s tasks run
:func:`frontier_mask`, Lemma 4's pruning, over their own edges between
their sweeps.
"""
from dataclasses import dataclass

import numpy as np

# H-value that makes ℋ count: larger than any |Δ(e)| <= n - 2.
UNBOUNDED = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Csr:
    """A simple undirected graph on dense ids.

    Edge ``i`` is ``(src[i], dst[i])`` with ``src < dst``. The neighbours
    of vertex ``x`` are ``nbr[indptr[x]:indptr[x + 1]]``, ascending, and
    ``nbr_eid`` holds the id of the edge to each of them.
    """

    src: np.ndarray
    dst: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    nbr_eid: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        return len(self.src)


def build_csr(pairs: np.ndarray) -> Csr:
    """CSR adjacency of the canonical ``(m, 2)`` edge list ``pairs``, its
    vertices relabelled densely in ascending id order; edge ``i`` is row ``i``."""
    vertex_ids, dense = np.unique(pairs, return_inverse=True)
    n = len(vertex_ids)
    src, dst = dense.reshape(-1, 2).astype(np.int64).T
    eid = np.arange(len(src), dtype=np.int64)
    a = np.concatenate([src, dst])
    b = np.concatenate([dst, src])
    order = np.lexsort((b, a))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    return Csr(src, dst, indptr, b[order], np.concatenate([eid, eid])[order])


def _rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flattened CSR slices: for each entry of ``rows`` (by position
    ``i``), every index ``j`` in ``indptr[rows[i]]:indptr[rows[i] + 1]``,
    returned as the parallel arrays ``(i, j)``."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
    offset = np.arange(len(owner), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return owner, starts[owner] + offset


def path_keys(csr: Csr, hval: np.ndarray, sources: np.ndarray, h: int):
    """Bottleneck path keys from each vertex of ``sources``.

    ``P(s, w) = max over walks s→w of length <= h that do not return to
    s of the least H-value on the walk``, for every ``w`` within ``h``
    hops of ``s``. Returns ``(code, key)`` sorted by ``code``, where
    ``code = i * n + w`` for ``s = sources[i]``.

    Each round relaxes only the entries that improved in the round
    before; for a max-min objective walks and paths share the optimum,
    so ``h`` rounds are exact.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    n = np.int64(csr.n)
    sources = np.asarray(sources, dtype=np.int64)
    owner, j = _rows(csr.indptr, sources)
    code = owner * n + csr.nbr[j]
    key = hval[csr.nbr_eid[j]]
    front_code, front_key = code, key
    for _ in range(h - 1):
        if not len(front_code):
            break
        f_owner, f_w = np.divmod(front_code, n)
        i, j = _rows(csr.indptr, f_w)
        w = csr.nbr[j]
        c_owner = f_owner[i]
        keep = w != sources[c_owner]
        c_code = (c_owner * n + w)[keep]
        c_key = np.minimum(front_key[i], hval[csr.nbr_eid[j]])[keep]
        # Max per code; on a tie the existing entry wins, so `fresh`
        # marks exactly the entries this round created or raised.
        all_code = np.concatenate([code, c_code])
        all_key = np.concatenate([key, c_key])
        is_new = np.concatenate([np.zeros(len(code), np.int8),
                                 np.ones(len(c_code), np.int8)])
        order = np.lexsort((is_new, -all_key, all_code))
        sorted_code = all_code[order]
        first = order[np.r_[True, sorted_code[1:] != sorted_code[:-1]]]
        code, key = all_code[first], all_key[first]
        fresh = is_new[first] == 1
        front_code, front_key = code[fresh], key[fresh]
    return code, key


def h_index(values: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """ℋ of each group: for ``g`` in ``0..n_groups-1``, the largest ``y``
    such that at least ``y`` of the ``values`` with ``groups == g`` are
    ``>= y``; 0 for an empty group."""
    order = np.lexsort((-values, groups))
    g, v = groups[order], values[order]
    rank = np.arange(1, len(g) + 1) - np.searchsorted(g, g)
    # Sorted descending, value >= rank holds on a prefix of each group,
    # and that prefix's length is ℋ.
    return np.bincount(g[v >= rank], minlength=n_groups).astype(np.int64)


def sweep(csr: Csr, hval: np.ndarray, eids: np.ndarray, h: int) -> np.ndarray:
    """New H-value of each edge in ``eids``, read from ``hval``."""
    eids = np.asarray(eids, dtype=np.int64)
    k = len(eids)
    if not k:
        return np.zeros(0, dtype=np.int64)
    n = np.int64(csr.n)
    sources, ends = np.unique(
        np.concatenate([csr.src[eids], csr.dst[eids]]), return_inverse=True
    )
    code, key = path_keys(csr, hval, sources, h)
    bounds = np.searchsorted(code, np.arange(len(sources) + 1) * n)
    u, v = ends[:k], ends[k:]
    # Walk the smaller reach set and look each vertex up in the other.
    smaller = np.diff(bounds)[u] <= np.diff(bounds)[v]
    x, y = np.where(smaller, u, v), np.where(smaller, v, u)
    edge, j = _rows(bounds, x)
    w = code[j] - x[edge] * n
    query = y[edge] * n + w
    hit = np.minimum(np.searchsorted(code, query), len(code) - 1)
    found = code[hit] == query
    values = np.minimum(key[j[found]], key[hit[found]])
    return h_index(values, edge[found], k)


def frontier_mask(csr: Csr, old: np.ndarray, new: np.ndarray, h: int,
                  eids: np.ndarray) -> np.ndarray:
    """Boolean mask over the edges ``eids`` of Paral+'s frontier after a
    sweep took the H vector from ``old`` to ``new`` (both finite): the
    edges Lemma 4 says the next sweep may lower. The index of dropped
    edges covers every drop; only the edges ``eids`` are looked up in it.

    Edge ``e`` is in it when some edge ``d`` dropped across its value,
    ``new[d] < new[e] <= old[d]``, and an endpoint of ``d`` lies within
    ``h - 1`` hops of an endpoint of ``e``. ``new[e]`` falls only if a
    path key it counted falls below ``new[e]``, and a key falls only
    through such an edge ``d`` on its walk of at most ``h`` edges from
    ``e``'s endpoint; so every edge outside the mask keeps its value.
    """
    dropped = np.flatnonzero(new < old)
    if not len(dropped):
        return np.zeros(len(eids), dtype=bool)
    n = np.int64(csr.n)
    # code = i * n + x: vertex x is within h - 1 hops of dropped[i].
    ends = np.concatenate([csr.src[dropped], csr.dst[dropped]])
    code = np.unique(np.tile(np.arange(len(dropped)), 2) * n + ends)
    layer = code
    for _ in range(h - 1):
        i, j = _rows(csr.indptr, layer % n)
        layer = np.setdiff1d(layer[i] - layer[i] % n + csr.nbr[j], code)
        code = np.union1d(code, layer)
    # Each code puts the interval (new[d], old[d]] at vertex x. Sorted by
    # (x, new[d]), the running maximum of (x, old[d]) answers "does an
    # interval at y contain t?" for a query (y, t) by one binary search.
    x, d = code % n, dropped[code // n]
    top = old.max() + 1  # above every H-value: x * top + value orders by x
    key = x * top + new[d]
    order = np.argsort(key)
    key, reach = key[order], np.maximum.accumulate((x * top + old[d])[order])

    def crossed(y):
        query = y * top + new[eids]
        last = np.searchsorted(key, query) - 1  # last (x, new[d]) < (y, t)
        return (last >= 0) & (reach[last] >= query)

    return crossed(csr.src[eids]) | crossed(csr.dst[eids])
