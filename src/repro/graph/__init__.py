"""Graph substrate: canonical edges (:func:`~repro.graph.edges.edge_array`,
a numpy array, is what the decomposition reads), and as Spark SQL
dataflow the adjacency, h-hop neighborhoods, common-h-neighbor triads
and h-support of the dataflow reference layers, which the tests check
against :mod:`repro.pyref`."""
from .edges import adjacency_df, edges_df  # noqa: F401
from .hops import hop_pairs_df  # noqa: F401
from .triads import h_support_df, triads_df  # noqa: F401
