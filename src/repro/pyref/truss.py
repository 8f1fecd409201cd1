"""Reference (k,h)-truss machinery, straight from the definitions.

Three independent oracles live here:

* :func:`kh_truss_by_definition` — the maximal ``(k,h)``-truss by
  iterated deletion (Definition 4, applied literally).
* :func:`decompose_peeling` — h-trussness of every edge by computing the
  nested truss chain ``(2,h) ⊇ (3,h) ⊇ ...`` (Lemma 1).
* :func:`serial_hindex_decompose` — the paper's H-index fixpoint
  (Section 4.1/4.2) in serial Python; also reports the sweep count, which
  T5 compares the Spark variants against.

All take raw edge lists and canonicalize internally.
"""
import time

from .graphs import adjacency, bfs_within, canonical_edges
from .hindex import h_index
from .hsupport import h_support


def kh_truss_by_definition(edges, k, h):
    """Edge set of the maximal ``(k,h)``-truss of the input graph.

    Repeatedly removes edges whose h-support *within the surviving
    subgraph* is below ``k - 2`` until none remain; the survivors are the
    maximal ``(k,h)``-truss (standard greatest-fixpoint argument).
    """
    cur = set(canonical_edges(edges))
    while True:
        adj = adjacency(cur)
        bad = {(u, v) for u, v in cur if h_support(adj, u, v, h) < k - 2}
        if not bad:
            return cur
        cur -= bad


def decompose_peeling(edges, h):
    """h-trussness of every edge: ``{(u,v): t(e,h)}`` with ``u < v``.

    Walks the containment chain of Lemma 1: edges that fall out of the
    ``(k+1,h)``-truss while in the ``(k,h)``-truss have trussness ``k``.
    """
    cur = set(canonical_edges(edges))
    trussness = {}
    k = 2
    while cur:
        nxt = kh_truss_by_definition(cur, k + 1, h)
        for e in cur - nxt:
            trussness[e] = k
        cur = nxt
        k += 1
    return trussness


def _path_keys(adj, source, h, values, targets=None):
    """Bottleneck path keys from ``source`` (Definition 6).

    ``P(source, w) = max over walks of length <= h of min edge value``
    for every ``w != source`` within ``h`` hops. ``values`` maps the
    canonical edge ``(min(u,v), max(u,v))`` to its current H-value. For a
    max-min objective, walks and simple paths share the optimum, so a
    cumulative relaxation over ``h`` rounds is exact.
    """

    def val(a, b):
        return values[(a, b) if a < b else (b, a)]

    best = {w: val(source, w) for w in adj.get(source, ())}
    for _ in range(h - 1):
        updates = {}
        for b, kb in best.items():
            for w in adj.get(b, ()):
                if w == source:
                    continue
                cand = min(kb, val(b, w))
                if cand > updates.get(w, -1):
                    updates[w] = cand
        changed = False
        for w, cand in updates.items():
            if cand > best.get(w, -1):
                best[w] = cand
                changed = True
        if not changed:
            break
    if targets is not None:
        return {w: best.get(w, 0) for w in targets}
    return best


# Sweeps serial_hindex_decompose runs before it gives up.
MAX_SWEEPS = 100_000


def serial_hindex_decompose(edges, h, asynchronous=False, budget_s=None):
    """The paper's H-index fixpoint, serially.

    Synchronous mode is Algorithm 2 run on one thread: every sweep
    recomputes ``H^(n)`` for all edges from the ``H^(n-1)`` snapshot.
    Asynchronous mode applies the Section 4.3 strategy: edges are updated
    in place (ascending initial h-support order) so later edges in the
    same sweep see fresh values.

    Returns ``(trussness, sweeps)`` where ``trussness[(u,v)] = t(e,h)``
    and ``sweeps`` is the number of iterations until no value changed.
    With ``budget_s`` set, raises :class:`TimeoutError` once the call has
    run longer (the harness's INF).
    """
    deadline = None if budget_s is None else time.monotonic() + budget_s

    def check_budget():
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"serial H-index iteration exceeded {budget_s} s")

    edges = canonical_edges(edges)
    adj = adjacency(edges)
    delta = {}
    for u, v in edges:
        check_budget()
        near_u = bfs_within(adj, u, h)
        near_v = bfs_within(adj, v, h)
        delta[(u, v)] = sorted(
            w for w in near_u if w in near_v and w != u and w != v
        )
    hval = {e: len(delta[e]) for e in edges}
    order = sorted(edges, key=lambda e: (hval[e], e))
    sweeps = 0
    for _ in range(MAX_SWEEPS):
        changed = False
        source = hval if asynchronous else dict(hval)
        new = hval if asynchronous else {}
        for e in order:
            check_budget()
            u, v = e
            pu = _path_keys(adj, u, h, source, targets=delta[e])
            pv = _path_keys(adj, v, h, source, targets=delta[e])
            val = h_index(min(pu[w], pv[w]) for w in delta[e])
            if val != hval[e]:
                changed = True
            new[e] = val
        hval = new
        sweeps += 1
        if not changed:
            break
    else:  # pragma: no cover - safety net
        raise RuntimeError("H-index iteration did not converge")
    return {e: hval[e] + 2 for e in edges}, sweeps
