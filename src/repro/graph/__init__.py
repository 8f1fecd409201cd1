"""DataFrame graph substrate: canonical edges, adjacency, h-hop
neighborhoods, common-h-neighbor triads and h-support, all as Spark SQL
dataflow (Catalyst), plus the DuckDB SQL used by the oracle."""
from .edges import adjacency_df, edges_df  # noqa: F401
from .hops import hop_pairs_df  # noqa: F401
from .triads import h_support_df, triads_df  # noqa: F401
