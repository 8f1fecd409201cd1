"""Pure-Python reference implementations used as test oracles.

Everything here is deliberately written in the most direct,
definition-following style (plain dicts/sets, BFS), independent of the
implementations in :mod:`repro.core` and :mod:`repro.graph` (the numpy
kernel, Base's peeling and the dataflow reference layers), so a bug in
one of them cannot hide in a shared helper.
"""
from .graphs import adjacency, bfs_within, canonical_edges  # noqa: F401
from .hindex import h_index  # noqa: F401
from .hsupport import all_h_supports, common_h_neighbors, h_support  # noqa: F401
from .truss import (  # noqa: F401
    decompose_peeling,
    kh_truss_by_definition,
    serial_hindex_decompose,
)
