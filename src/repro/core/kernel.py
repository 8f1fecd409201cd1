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

Steps 1 and 2 read H only at the end: which walks reach which vertex,
and Δ, never change. For h ∈ {1, 2}, :func:`witness_index` does them
once, as a :class:`WitnessIndex` of slots ``(s, w)``, the edge pairs of
the walks from ``s`` to ``w`` and each edge's witnesses as slot pairs.
Its :meth:`~WitnessIndex.sweep` is then a few gathers: the slot keys as
a ``maximum.reduceat`` over the pairs' minima, each witness value as the
smaller of two keys, and ℋ by counting values capped at
``min(H(e), |Δ(e)|)``. Its witness counts are ``H^(0)``. At h >= 3 the
walks are not listed, and :func:`sweep` re-expands them in every call.

Nothing here touches Spark. ``repro.core.paral``'s tasks sweep the
sub-blocks of the edges they own with a :class:`WitnessIndex` each at
h <= 2 and with :func:`sweep` at h >= 3, and Paral+'s tasks run
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


def h_index(values: np.ndarray, groups: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """ℋ of each group, capped: for ``g`` in ``0..len(cap)-1``, the largest
    ``y <= cap[g]`` such that at least ``y`` of the ``values`` with
    ``groups == g`` are ``>= y``; 0 for an empty group. ℋ never exceeds a
    group's size, so a cap at the sizes changes nothing.

    By counting: group ``g`` has the bins ``0..cap[g]``, a value counts in
    bin ``min(value, cap[g])``, and the result is the last bin ``y`` that
    at least ``y`` values reach."""
    width = cap + 1
    start = np.cumsum(width) - width
    counts = np.bincount(start[groups] + np.minimum(values, cap[groups]),
                         minlength=width.sum())
    reach = np.r_[np.cumsum(counts[::-1])[::-1], 0]  # values in bin or later
    owner = np.repeat(np.arange(len(cap)), width)
    y = np.arange(len(owner)) - start[owner]
    # Bin 0 always qualifies, and the qualifying bins are a prefix.
    ok = reach[:-1] - reach[(start + width)[owner]] >= y
    return np.bincount(owner[ok], minlength=len(cap)) - 1


def _delta(code: np.ndarray, n_sources: int, ends: np.ndarray,
           n: np.int64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Δ of ``k = len(ends) // 2`` edges, the edge ``i`` running between
    the sources ``ends[i]`` and ``ends[k + i]``, from the sorted reach
    codes ``code = source * n + w`` of ``n_sources`` sources. Returns, for
    each witness ``w ∈ Δ``, its edge's position and the positions in
    ``code`` of ``w`` from either end."""
    k = len(ends) // 2
    bounds = np.searchsorted(code, np.arange(n_sources + 1) * n)
    u, v = ends[:k], ends[k:]
    # Walk the smaller reach set and look each vertex up in the other.
    smaller = np.diff(bounds)[u] <= np.diff(bounds)[v]
    x, y = np.where(smaller, u, v), np.where(smaller, v, u)
    edge, j = _rows(bounds, x)
    query = (y - x)[edge] * n + code[j]
    hit = np.minimum(np.searchsorted(code, query), len(code) - 1)
    found = code[hit] == query
    return edge[found], j[found], hit[found]


def sweep(csr: Csr, hval: np.ndarray, eids: np.ndarray, h: int) -> np.ndarray:
    """New H-value of each edge in ``eids``, read from ``hval``."""
    eids = np.asarray(eids, dtype=np.int64)
    k = len(eids)
    if not k:
        return np.zeros(0, dtype=np.int64)
    sources, ends = np.unique(
        np.concatenate([csr.src[eids], csr.dst[eids]]), return_inverse=True
    )
    code, key = path_keys(csr, hval, sources, h)
    edge, a, b = _delta(code, len(sources), ends, np.int64(csr.n))
    return h_index(np.minimum(key[a], key[b]), edge, np.bincount(edge, minlength=k))


@dataclass(frozen=True)
class WitnessIndex:
    """What :func:`sweep` derives for a block of edges that does not
    depend on H, for h ∈ {1, 2}: built by :func:`witness_index`, swept by
    :meth:`sweep`.

    A slot is a pair ``(s, w)`` of an endpoint ``s`` of the block's edges
    and a vertex ``w != s`` within ``h`` hops of it. Slot ``i``'s
    contributors are the edge pairs ``pairs[:, slot_ptr[i]:slot_ptr[i + 1]]``
    whose walks reach ``w`` from ``s``: the edge ``(s, w)`` itself, as
    ``(e, e)``, and at h=2 each wedge ``s–x–w``, as ``(e_sx, e_xw)``; so
    ``P(s, w)`` is the largest ``min(H[c1], H[c2])`` over them. The
    witnesses ``w ∈ Δ(e)`` of edge ``eids[i]`` are the slot pairs
    ``(P(u, w), P(v, w))`` in ``witnesses[:, witness_ptr[i]:witness_ptr[i + 1]]``.
    ``pairs``, ``slot_ptr`` and ``witnesses`` are int32 where their ids
    fit, as they do at any size a task can hold: a task keeps its indexes
    for the whole call.
    """

    eids: np.ndarray
    pairs: np.ndarray
    slot_ptr: np.ndarray
    witnesses: np.ndarray
    witness_ptr: np.ndarray

    @property
    def support(self) -> np.ndarray:
        """``|Δ(e)|`` of each edge, its h-support ``H^(0)``."""
        return np.diff(self.witness_ptr)

    def block(self, rows: np.ndarray) -> "WitnessIndex":
        """The index of the edges ``eids[rows]`` alone, keeping only the
        slots their witnesses read."""
        edge, j = _rows(self.witness_ptr, rows)
        used, slot = np.unique(self.witnesses[:, j], return_inverse=True)
        _, c = _rows(self.slot_ptr, used)
        ids = self.pairs.dtype
        return WitnessIndex(
            self.eids[rows], self.pairs[:, c],
            np.r_[0, np.cumsum(np.diff(self.slot_ptr)[used])].astype(ids),
            slot.reshape(2, -1).astype(ids),
            np.r_[0, np.cumsum(np.bincount(edge, minlength=len(rows)))],
        )

    def sweep(self, hval: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """New H-value of each edge ``eids[rows]``, read from ``hval``:
        ``ℋ`` of its witness values, capped at its value in ``hval``.

        The cap changes nothing on an H vector the iteration reaches:
        from the h-support down, no H-value ever rises (Theorem 1).
        Every slot's key is computed, but only the witnesses of ``rows``
        are read."""
        if not len(rows):
            return np.zeros(0, dtype=np.int64)
        c1, c2 = self.pairs
        keys = np.maximum.reduceat(np.minimum(hval[c1], hval[c2]),
                                   self.slot_ptr[:-1])
        edge, j = _rows(self.witness_ptr, rows)
        wu, wv = self.witnesses[:, j]
        cap = np.minimum(hval[self.eids[rows]], self.support[rows])
        return h_index(np.minimum(keys[wu], keys[wv]), edge, cap)


def witness_index(csr: Csr, eids: np.ndarray, h: int) -> WitnessIndex:
    """The :class:`WitnessIndex` of the edges ``eids``, h ∈ {1, 2}: the
    walks :func:`path_keys` relaxes from their endpoints, once, and Δ as
    :func:`sweep` finds it."""
    if h not in (1, 2):
        raise ValueError(f"a witness index needs h in (1, 2), got {h}")
    eids = np.asarray(eids, dtype=np.int64)
    k = len(eids)
    n = np.int64(csr.n)
    sources, ends = np.unique(
        np.concatenate([csr.src[eids], csr.dst[eids]]), return_inverse=True
    )
    owner, j = _rows(csr.indptr, sources)
    code = owner * n + csr.nbr[j]
    pairs = np.stack([csr.nbr_eid[j], csr.nbr_eid[j]])
    if h == 2:
        i, j2 = _rows(csr.indptr, csr.nbr[j])
        keep = csr.nbr[j2] != sources[owner[i]]
        i, j2 = i[keep], j2[keep]
        code = np.concatenate([code, owner[i] * n + csr.nbr[j2]])
        pairs = np.concatenate([pairs, [csr.nbr_eid[j][i], csr.nbr_eid[j2]]], axis=1)
    order = np.argsort(code)
    code, pairs = code[order], pairs[:, order]
    first = np.flatnonzero(np.diff(code, prepend=-1))
    edge, a, b = _delta(code[first], len(sources), ends, n)
    ids = np.int32 if max(csr.m, len(code)) < 2**31 else np.int64
    return WitnessIndex(
        eids, pairs.astype(ids), np.r_[first, len(code)].astype(ids),
        np.stack([a, b]).astype(ids),
        np.r_[0, np.cumsum(np.bincount(edge, minlength=k))],
    )


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
