"""The paper's contribution: higher-order truss decomposition.

* :mod:`repro.core.baseline` — Algorithm 1, the serial peeling baseline
  (**Base**).
* :mod:`repro.core.kernel` — Algorithm 3 as a numpy kernel over CSR
  adjacency: bottleneck path keys, Δ and ℋ(·) for a block of edges.
* :mod:`repro.core.hindex` — ℋ(·) aggregation and the h-hop bottleneck
  path-key dataflow (a dataflow rendering of Algorithm 3, kept as a
  tested reference; the decomposition runs the kernel).
* :mod:`repro.core.paral` — Algorithm 2's iterate-until-convergence
  framework with the Section 4.3 optimizations (**Paral / Single /
  Asyn / Paral+**).
* :mod:`repro.core.api` — one front door: ``decompose(...)``.
"""
from .api import decompose  # noqa: F401
from .baseline import INF, baseline_decompose  # noqa: F401
from .paral import DecomposeResult, NotConvergedError, parallel_decompose  # noqa: F401
