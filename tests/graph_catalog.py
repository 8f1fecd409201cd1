"""Named tiny graphs + seeded random graphs shared across the suite.

Each entry is a raw edge list (deliberately *not* canonical in some
cases — duplicate orientations and self-loops — so canonicalization is
exercised end to end).
"""
import itertools
import random

from repro.graphgen import toy_edges

SMALL_GRAPHS = {
    "triangle": [(0, 1), (1, 2), (2, 0)],
    "k4": [(u, v) for u, v in itertools.combinations(range(4), 2)],
    "k5": [(u, v) for u, v in itertools.combinations(range(5), 2)],
    "path5": [(0, 1), (1, 2), (2, 3), (3, 4)],
    "cycle6": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
    "star5": [(0, i) for i in range(1, 6)],
    "two_triangles": [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 10)],
    "bowtie": [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
    "single_edge": [(7, 3)],
    "dirty": [(1, 2), (2, 1), (3, 3), (2, 1), (4, 5), (5, 4), (1, 2)],
    "toy": toy_edges(),
    "wheel5": [(0, i) for i in range(1, 6)]
    + [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)],
    "petersen": [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ],
}


# Two edges of equal work: at parallelism 2, a cut at half the total work
# falls before the first edge and leaves one task none.
WEDGE = [(0, 1), (0, 2)]


def random_graph(seed: int, n: int = 12, p: float = 0.3):
    """Seeded G(n, p) edge list (python random, independent of numpy)."""
    rng = random.Random(seed)
    return [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
