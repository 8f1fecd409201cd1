"""**Base** — Algorithm 1: serial peeling with bin sort.

The paper's baseline is inherently one-edge-at-a-time (each deletion
invalidates h-supports in its h-hop vicinity), so it runs as driver-side
Python, exactly as the paper runs it as serial C++ (DESIGN.md
substitution 4). The paper's 4-day INF convention is reproduced with a
wall-clock budget: past it the call raises :class:`TimeoutError`, which
the experiment harness reports as INF.

After deleting edge ``e = (u, v)`` only edges with an endpoint within
``h - 1`` hops of ``u`` or ``v`` (pre-deletion) can lose a common
h-neighbor — any qualifying path through ``e`` reaches ``u`` or ``v``
within ``h - 1`` hops of its start — so only those are recomputed
(Algorithm 1 line 11's ``E_G(e, h)``, as a safe superset).
"""
import time
from collections import deque

from repro.graph.edges import edge_array


def _ball(adj, sources, radius):
    """Vertices within ``radius`` hops of any source (sources included)."""
    dist = {s: 0 for s in sources}
    frontier = deque(sources)
    while frontier:
        x = frontier.popleft()
        if dist[x] == radius:
            continue
        for y in adj.get(x, ()):
            if y not in dist:
                dist[y] = dist[x] + 1
                frontier.append(y)
    return set(dist)


def _support(adj, u, v, h):
    """h-support of the edge ``(u, v)``: the vertices within ``h`` hops
    of both ends, bar the ends, which lie in both balls as neighbours."""
    return len(_ball(adj, (u,), h) & _ball(adj, (v,), h)) - 2


def baseline_decompose(edges, h, budget_s: float | None = None) -> dict:
    """Run Algorithm 1; returns the h-trussness of every edge as a
    ``{(src, dst): trussness}`` dict.

    ``edges`` is any input :func:`~repro.graph.edges.edge_array` accepts.
    ``budget_s`` bounds wall-clock time: the call raises
    :class:`TimeoutError` once it has run longer (the paper's INF).
    """
    t0 = time.monotonic()
    edges = edge_array(edges).tolist()
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    # Lines 1-5: initial h-supports into bins (bin sort as in core decomp).
    key = {}  # edge -> current bin index (= clamped support + 2)
    for u, v in edges:
        key[(u, v)] = _support(adj, u, v, h) + 2
    bins = {}
    for e, k in key.items():
        bins.setdefault(k, set()).add(e)
    ubtruss = max(key.values(), default=2)

    trussness = {}
    k = 2
    n_peeled = 0
    # Lines 6-13: peel in increasing k.
    while k <= ubtruss:
        bucket = bins.get(k)
        if not bucket:
            k += 1
            continue
        e = bucket.pop()
        u, v = e
        trussness[e] = k
        n_peeled += 1
        if budget_s is not None and n_peeled & 15 == 1:  # every 16, incl. first
            if time.monotonic() - t0 > budget_s:
                raise TimeoutError(
                    f"Base exceeded its budget of {budget_s} s (paper: INF)")
        # Vicinity whose supports may drop — measured before deletion.
        affected_vertices = _ball(adj, (u, v), h - 1) if h > 1 else {u, v}
        adj[u].discard(v)
        adj[v].discard(u)
        del key[e]
        for a in affected_vertices:
            for b in adj.get(a, ()):
                ep = (a, b) if a < b else (b, a)
                cur = key.get(ep)
                if cur is None or cur <= k:
                    continue  # already peeled or already doomed at this k
                new = max(_support(adj, ep[0], ep[1], h) + 2, k)
                if new != cur:
                    bins[cur].discard(ep)
                    bins.setdefault(new, set()).add(ep)
                    key[ep] = new
    return trussness
