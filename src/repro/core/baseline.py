"""**Base** — Algorithm 1: serial peeling with bin sort.

Each deletion invalidates h-supports in its h-hop vicinity, so the
paper's baseline is one-edge-at-a-time: it runs as driver-side Python, as
the paper runs it as serial C++ (DESIGN.md substitution 4), on the CSR
that ``decompose`` builds, with its own adjacency and BFS ball and no
sweep-kernel code. A wall-clock budget stands in for the paper's 4-day
INF: past it the call raises :class:`TimeoutError`, which the experiment
harness reports as INF.

An edge ``(u, v)``'s key is ``|B_h(u) ∩ B_h(v)|``, its h-support + 2 (each
end lies in the other's ball); bins are edge-id sets indexed by key, and
a peeled edge's key is its trussness. After deleting ``e = (u, v)`` only
edges with an endpoint within ``h - 1`` hops of ``u`` or ``v``
(pre-deletion) can lose a common h-neighbor — any qualifying path through
``e`` reaches ``u`` or ``v`` within ``h - 1`` hops of its start — so only
those are recomputed, each once (Algorithm 1 line 11's ``E_G(e, h)``, as
a safe superset), from their ends' balls, each built once per peel.
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


def baseline_decompose(csr, h, budget_s: float | None = None) -> np.ndarray:
    """Run Algorithm 1 on the graph ``csr``; returns the h-trussness of
    every edge as an int64 array in edge-id order.

    ``budget_s`` bounds wall-clock time: the call raises
    :class:`TimeoutError` once it has run longer (the paper's INF).
    """
    t0 = time.monotonic()

    def check_budget():
        if budget_s is not None and time.monotonic() - t0 > budget_s:
            raise TimeoutError(
                f"Base exceeded its budget of {budget_s} s (paper: INF)")

    src, dst, indptr, nbr, nbr_eid = (
        a.tolist() for a in (csr.src, csr.dst, csr.indptr, csr.nbr, csr.nbr_eid))
    # adj[x] maps each neighbour of x to the id of the edge between them.
    adj = [dict(zip(nbr[a:b], nbr_eid[a:b]))
           for a, b in zip(indptr, indptr[1:])]

    # Lines 1-5: initial keys into bins, from two transient balls per edge.
    key = []
    for u, v in zip(src, dst):
        check_budget()
        key.append(len(_ball(adj, (u,), h) & _ball(adj, (v,), h)))
    bins = [set() for _ in range(max(key, default=0) + 1)]
    for e, k in enumerate(key):
        bins[k].add(e)

    # Lines 6-13: peel in increasing k; a recomputed key is clamped at k,
    # so it stays in this bin or a later one.
    for k, bucket in enumerate(bins):
        while bucket:
            check_budget()
            e = bucket.pop()
            u, v = src[e], dst[e]
            # Vicinity whose keys may drop — measured before deletion.
            vicinity = _ball(adj, (u, v), h - 1)
            del adj[u][v], adj[v][u]
            todo = {f for a in vicinity for f in adj[a].values() if key[f] > k}
            # Each touched end's h-ball, built once for this peel only.
            balls = {x: _ball(adj, (x,), h)
                     for x in {x for f in todo for x in (src[f], dst[f])}}
            for f in todo:
                new = max(len(balls[src[f]] & balls[dst[f]]), k)
                if new != key[f]:
                    bins[key[f]].discard(f)
                    bins[new].add(f)
                    key[f] = new
    return np.array(key, dtype=np.int64)
