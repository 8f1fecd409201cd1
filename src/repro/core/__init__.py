"""The paper's contribution: higher-order truss decomposition.

:func:`decompose` is the one entry point; its ``variant`` names one of
the paper's five systems (§5.1: Base, Single, Paral, Asyn, Paral+).

* :mod:`repro.core.api` — ``decompose(spark, edges, h, variant)``: checks
  the options, builds the CSR and runs the call.
* :mod:`repro.core.baseline` — Algorithm 1, the serial peeling baseline
  (**Base**).
* :mod:`repro.core.paral` — Algorithm 2's iterate-until-convergence
  loop with the Section 4.3 optimizations (**Single / Paral / Asyn /
  Paral+**), and the one Spark job of kernel tasks that runs its rounds.
* :mod:`repro.core.kernel` — Algorithm 3 as a numpy kernel over CSR
  adjacency: a block of edges' static witness index, its bottleneck
  path keys by levels up to h and Δ, swept into ℋ(·).
* :mod:`repro.core.hindex` — ℋ(·) aggregation and the h-hop bottleneck
  path-key dataflow (a dataflow rendering of Algorithm 3, kept as a
  tested reference; the decomposition runs the kernel).
"""
__all__ = ["decompose", "DecomposeResult", "NotConvergedError"]


def __getattr__(name):
    """The names of ``__all__``, imported on first use (PEP 562): a kernel
    task unpickles :mod:`repro.core.paral`, which needs neither
    :mod:`repro.core.api` nor the pandas it imports."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .api import DecomposeResult, decompose
    from .paral import NotConvergedError

    globals().update(decompose=decompose, DecomposeResult=DecomposeResult,
                     NotConvergedError=NotConvergedError)
    return globals()[name]
