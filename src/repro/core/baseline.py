"""**Base** — Algorithm 1: serial peeling with bin sort.

The paper's baseline is inherently one-edge-at-a-time (each deletion
invalidates h-supports in its h-hop vicinity), so it runs as driver-side
Python, exactly as the paper runs it as serial C++ (DESIGN.md
substitution 4). It peels the CSR that ``decompose`` builds, with its
own adjacency, BFS ball and h-support: no sweep-kernel code. The
paper's 4-day INF convention is reproduced with a wall-clock budget:
past it the call raises :class:`TimeoutError`, which the experiment
harness reports as INF.

After deleting edge ``e = (u, v)`` only edges with an endpoint within
``h - 1`` hops of ``u`` or ``v`` (pre-deletion) can lose a common
h-neighbor — any qualifying path through ``e`` reaches ``u`` or ``v``
within ``h - 1`` hops of its start — so only those are recomputed, each
once (Algorithm 1 line 11's ``E_G(e, h)``, as a safe superset).
"""
import time
from collections import deque

import numpy as np


def _ball(adj, sources, radius):
    """Vertices within ``radius`` hops of any source (sources included)."""
    dist = {s: 0 for s in sources}
    frontier = deque(sources)
    while frontier:
        x = frontier.popleft()
        if dist[x] == radius:
            continue
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                frontier.append(y)
    return set(dist)


def _support(adj, u, v, h):
    """h-support of the edge ``(u, v)``: the vertices within ``h`` hops
    of both ends, bar the ends, which lie in both balls as neighbours."""
    return len(_ball(adj, (u,), h) & _ball(adj, (v,), h)) - 2


def baseline_decompose(csr, h, budget_s: float | None = None) -> np.ndarray:
    """Run Algorithm 1 on the graph ``csr``; returns the h-trussness of
    every edge as an int64 array in edge-id order.

    ``budget_s`` bounds wall-clock time: the call raises
    :class:`TimeoutError` once it has run longer (the paper's INF).
    """
    t0 = time.monotonic()
    src, dst, indptr, nbr, nbr_eid = (
        a.tolist() for a in (csr.src, csr.dst, csr.indptr, csr.nbr, csr.nbr_eid))
    # adj[x] maps each neighbour of x to the id of the edge between them.
    adj = [dict(zip(nbr[a:b], nbr_eid[a:b]))
           for a, b in zip(indptr, indptr[1:])]

    # Lines 1-5: initial h-supports into bins (bin sort as in core decomp).
    # key[e] is e's bin (clamped support + 2) and, once peeled, its trussness.
    key = [_support(adj, u, v, h) + 2 for u, v in zip(src, dst)]
    bins = {}
    for e, k in enumerate(key):
        bins.setdefault(k, set()).add(e)
    ubtruss = max(key, default=2)

    k = 2
    # Lines 6-13: peel in increasing k.
    while k <= ubtruss:
        bucket = bins.get(k)
        if not bucket:
            k += 1
            continue
        if budget_s is not None and time.monotonic() - t0 > budget_s:
            raise TimeoutError(
                f"Base exceeded its budget of {budget_s} s (paper: INF)")
        e = bucket.pop()
        u, v = src[e], dst[e]
        # Vicinity whose supports may drop — measured before deletion.
        vicinity = _ball(adj, (u, v), h - 1)
        del adj[u][v], adj[v][u]
        for f in {f for a in vicinity for f in adj[a].values()}:
            cur = key[f]
            if cur <= k:
                continue  # already doomed at this k
            new = max(_support(adj, src[f], dst[f], h) + 2, k)
            if new != cur:
                bins[cur].discard(f)
                bins.setdefault(new, set()).add(f)
                key[f] = new
    return np.array(key, dtype=np.int64)
