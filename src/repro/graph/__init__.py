"""Graph substrate: canonical edges (:func:`~repro.graph.edges.edge_array`,
a numpy array, is what the decomposition reads), and as Spark SQL
dataflow the edge and adjacency tables (:mod:`repro.graph.edges`),
h-hop neighborhoods (:mod:`repro.graph.hops`), common-h-neighbor triads
and h-support (:mod:`repro.graph.triads`) of the dataflow reference
layers, which the tests check against :mod:`repro.pyref`. Importing the
package loads none of its modules."""
