"""Algorithm 3 as a numpy kernel over CSR adjacency.

A kernel task computes the new H-value of the edges it owns from the
current H vector, the way one thread of the paper's §4.2 does for its
block of edges:

1. bottleneck path keys ``P(s, w)`` (Definition 6) from every endpoint
   ``s`` of the edges to every ``w != s`` within ``h`` hops;
2. ``Δ(e)``, the common h-neighbours of ``e = (u, v)``, as the
   intersection of the two reach sets (a source never reaches itself,
   so ``u`` and ``v`` drop out on their own);
3. ``ℋ`` of ``min(P(u, w), P(v, w))`` over ``w ∈ Δ(e)``.

Which walks reach which vertex, and Δ, never depend on H.
:func:`witness_index` lists them once, as a :class:`WitnessIndex`, by
levels: level 1 is the edge array, keyed by the H vector, and level
``l`` keys each slot ``(s, w)`` by ``P_l(s, w) = max(H(s, w) if
adjacent, max over x ∈ N(s) of min(H(s, x), P_{l-1}(x, w)))``, exact
since walks and paths share the optimum of a max-min objective. Level
``h`` has the slots of the edges' endpoints, and each edge's witnesses
are pairs of them. :meth:`WitnessIndex.sweep` is then a ``maximum.reduceat`` per
level over its contributors' minima, each witness value as the smaller
of two keys, and ℋ by counting values capped at ``min(H(e), |Δ(e)|)``.
The witness counts ``|Δ(e)|`` are the h-support ``H^(0)``.

Vertices are dense ids ``0..n-1`` and edges dense ids ``0..m-1``.
Nothing here touches Spark. ``repro.core.paral``'s tasks sweep the
sub-blocks of the edges they own with a :class:`WitnessIndex` each, and
Paral+'s tasks run :func:`frontier_mask`, Lemma 4's pruning, over their
own edges between their sweeps: a bit table over (vertex, threshold)
spread ``h - 1`` hops over the CSR.
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


@dataclass(frozen=True)
class WitnessIndex:
    """What a sweep of a block of edges reads that does not depend on H:
    built by :func:`witness_index`, swept by :meth:`sweep`.

    Level 1 is the edge array: its slot ``e`` is edge ``e``, keyed by
    ``H[e]``. ``levels`` holds levels 2..h, each as ``(pairs, slot_ptr)``.
    Slot ``i`` of level ``l`` is a pair ``(s, w)`` of a source ``s`` and a
    vertex ``w != s`` within ``l`` hops of it. Its contributors are the
    columns ``pairs[:, slot_ptr[i]:slot_ptr[i + 1]]``: for each neighbour
    ``x`` of ``s``, the edge ``(s, x)`` and the level-``(l - 1)`` slot
    ``(x, w)``, or ``(x, s)`` when ``x = w``, whose key is at least
    ``H(s, x)``. So ``P_l(s, w)`` is the largest ``min(H[c1], P_{l-1}[c2])``
    over them; at h=2 the pairs are ``(e_sx, e_xw)`` of each wedge
    ``s–x–w`` and ``(e, e)`` of the edge ``(s, w)``. The sources of level
    h are the endpoints of ``eids``, and those of each level below it
    the neighbours of the sources above. The witnesses ``w ∈ Δ(e)`` of
    edge ``eids[i]``, in ascending ``w``, are the pairs of its endpoints'
    level-h slots to ``w``, in either order, in
    ``witnesses[:, witness_ptr[i]:witness_ptr[i + 1]]``. The ids are
    int32 where they fit, as they do at any size a task can hold: a task
    keeps its indexes for the whole call.
    """

    eids: np.ndarray
    levels: tuple
    witnesses: np.ndarray
    witness_ptr: np.ndarray

    @property
    def support(self) -> np.ndarray:
        """``|Δ(e)|`` of each edge, its h-support ``H^(0)``."""
        return np.diff(self.witness_ptr)

    def block(self, rows: np.ndarray) -> "WitnessIndex":
        """The index of the edges ``eids[rows]`` alone: a copy of the
        level-h slots their witnesses read, and the levels below it
        shared with this index."""
        edge, j = _rows(self.witness_ptr, rows)
        levels, witnesses = self.levels, self.witnesses[:, j]
        if levels:
            pairs, slot_ptr = levels[-1]
            used, slot = np.unique(witnesses, return_inverse=True)
            _, c = _rows(slot_ptr, used)
            ids = pairs.dtype
            levels = levels[:-1] + ((
                pairs[:, c],
                np.r_[0, np.cumsum(np.diff(slot_ptr)[used])].astype(ids),
            ),)
            witnesses = slot.reshape(2, -1).astype(ids)
        return WitnessIndex(
            self.eids[rows], levels, witnesses,
            np.r_[0, np.cumsum(np.bincount(edge, minlength=len(rows)))],
        )

    def keys(self, hval: np.ndarray) -> np.ndarray:
        """The key of every level-h slot, read from ``hval``: a
        ``maximum.reduceat`` over each level's contributors in turn."""
        keys = hval
        for (c1, c2), slot_ptr in self.levels:
            keys = np.maximum.reduceat(np.minimum(hval[c1], keys[c2]),
                                       slot_ptr[:-1])
        return keys

    def sweep(self, hval: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """New H-value of each edge ``eids[rows]``, read from ``hval``:
        ``ℋ`` of its witness values, capped at its value in ``hval``.

        The cap changes nothing on an H vector the iteration reaches:
        from the h-support down, no H-value ever rises (Theorem 1).
        Every slot's key is computed, but only the witnesses of ``rows``
        are read."""
        if not len(rows):
            return np.zeros(0, dtype=np.int64)
        keys = self.keys(hval)
        edge, j = _rows(self.witness_ptr, rows)
        wu, wv = self.witnesses[:, j]
        cap = np.minimum(hval[self.eids[rows]], self.support[rows])
        return h_index(np.minimum(keys[wu], keys[wv]), edge, cap)


def witness_index(csr: Csr, eids: np.ndarray, h: int) -> WitnessIndex:
    """The :class:`WitnessIndex` of the edges ``eids``, ``h >= 1``: its
    levels built from level 2 up, then Δ of each edge from its endpoints'
    level-h slots. An ``h`` above ``n - 1`` builds the index of ``n - 1``,
    which has the same Δ and path keys."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    h = min(h, csr.n - 1)  # a simple path has at most n - 1 edges
    eids = np.asarray(eids, dtype=np.int64)
    n = np.int64(csr.n)
    sources, ends = np.unique(
        np.concatenate([csr.src[eids], csr.dst[eids]]), return_inverse=True
    )
    tiers = [sources]  # the sources of levels h, h - 1, ..., 2
    for _ in range(h - 2):
        tiers.append(np.unique(csr.nbr[_rows(csr.indptr, tiers[-1])[1]]))
    # A level as rows over all vertices: vertex x's slots are (x, target[j])
    # for j in ptr[x]:ptr[x + 1], with the ids slot[j]; level 1's are x's
    # edges.
    ptr, target, slot = csr.indptr, csr.nbr, csr.nbr_eid
    levels = []
    for tier in reversed(tiers[:h - 1]):
        pairs, slot_ptr, code = _level(csr, tier, ptr, target, slot)
        levels.append((pairs, slot_ptr))
        ptr = np.zeros(csr.n + 1, dtype=np.int64)
        ptr[tier + 1] = np.bincount(code // n, minlength=len(tier))
        np.cumsum(ptr, out=ptr)
        target, slot = code % n, np.arange(len(code))
    owner, j = _rows(ptr, sources)
    edge, a, b = _delta(owner * n + target[j], len(sources), ends, n)
    ids = np.int32 if max(csr.m, len(j)) < 2**31 else np.int64
    return WitnessIndex(
        eids, tuple(levels), slot[j][np.stack([a, b])].astype(ids),
        np.r_[0, np.cumsum(np.bincount(edge, minlength=len(eids)))],
    )


def _level(csr: Csr, sources: np.ndarray, ptr: np.ndarray, target: np.ndarray,
           slot: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The level over ``sources`` built on the level below, which is
    given as the vertex rows ``(ptr, target, slot)`` of
    :func:`witness_index`. Returns its ``(pairs, slot_ptr)``, as
    :class:`WitnessIndex` holds a level, and each slot's code
    ``i * n + w`` for ``(sources[i], w)``, ascending."""
    n = np.int64(csr.n)
    owner, j = _rows(csr.indptr, sources)  # the edges (s, x)
    i, k = _rows(ptr, csr.nbr[j])  # x's slots (x, t)
    t = target[k]
    back = t == sources[owner[i]]
    t[back] = csr.nbr[j[i[back]]]  # (x, s) stands for the edge (s, x)
    code = owner[i] * n + t
    del t, back
    # The codes come in runs, one per source, which a stable sort merges.
    order = np.argsort(code, kind="stable")
    code = code[order]
    first = np.flatnonzero(np.diff(code, prepend=-1))
    # Each slot below is some contributor's c2, so len(code) bounds every id.
    ids = np.int32 if max(csr.m, len(code)) < 2**31 else np.int64
    pairs = np.empty((2, len(code)), dtype=ids)
    pairs[0] = csr.nbr_eid[j[i[order]]]
    pairs[1] = slot[k[order]]
    return pairs, np.r_[first, len(code)].astype(ids), code[first]


def frontier_mask(csr: Csr, old: np.ndarray, new: np.ndarray, h: int,
                  eids: np.ndarray) -> np.ndarray:
    """Boolean mask over the edges ``eids`` of Paral+'s frontier after a
    sweep took the H vector from ``old`` to ``new`` (both finite): the
    edges Lemma 4 says the next sweep may lower.

    Edge ``e`` is in it when some edge ``d`` dropped across its value,
    ``new[d] < new[e] <= old[d]``, and an endpoint of ``d`` lies within
    ``h - 1`` hops of an endpoint of ``e``. ``new[e]`` falls only if a
    path key it counted falls below ``new[e]``, and a key falls only
    through such an edge ``d`` on its walk of at most ``h`` edges from
    ``e``'s endpoint; so every edge outside the mask keeps its value.

    As a bit table over (vertex, threshold), the thresholds ``ts`` being
    the distinct values ``new[eids]``: bit ``i`` of a dropped edge's row
    is set when it dropped across ``ts[i]``, a vertex's row is the OR of
    its edges' rows, and each of ``h - 1`` steps ORs in the neighbours'
    rows, ``n - 2`` steps at most, which reach every vertex. An edge
    then reads its own value's bit at its two endpoints.
    """
    dropped = np.flatnonzero(new < old)
    if not len(dropped):
        return np.zeros(len(eids), dtype=bool)
    ts, t = np.unique(new[eids], return_inverse=True)
    rows = np.zeros((csr.m, (len(ts) + 7) // 8), dtype=np.uint8)
    d = dropped[:, None]
    rows[dropped] = np.packbits((new[d] < ts) & (ts <= old[d]), axis=1,
                                bitorder="little")
    # build_csr gives every vertex an edge, so no reduceat segment is empty.
    starts = csr.indptr[:-1]
    near = np.bitwise_or.reduceat(rows[csr.nbr_eid], starts)
    for _ in range(min(h, csr.n - 1) - 1):
        near |= np.bitwise_or.reduceat(near[csr.nbr], starts)
    byte = t >> 3
    bits = near[csr.src[eids], byte] | near[csr.dst[eids], byte]
    return (bits >> (t & 7) & 1).astype(bool)
