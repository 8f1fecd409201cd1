"""Synthetic stand-ins for the paper's 6 KONECT datasets (Table 1).

Each entry records the paper's |V|, |E|, the generator family chosen for
it (DESIGN.md substitution 5), and a default *bench scale* — the
fraction of the paper's size that ``jobs/tables.py`` and the bench-scale
tests use, so a full T3 row finishes in minutes on a 4-core local Spark
(the paper used a 2×Xeon 256 GB server and C++). ``scale=1.0``
generates at the paper's published size.
"""
from dataclasses import dataclass

import numpy as np

from .generators import (
    erdos_renyi,
    powerlaw_configuration,
    preferential_attachment,
    rmat,
)


@dataclass(frozen=True)
class DatasetSpec:
    """One KONECT stand-in: paper sizes + generator family."""

    key: str
    name: str
    n_paper: int
    m_paper: int
    family: str  # 'powerlaw' | 'er' | 'rmat' | 'pa'
    bench_scale: float
    seed: int


DATASETS = {
    "YT": DatasetSpec("YT", "Yeast", 1_870, 2_227, "powerlaw", 1.0, 11),
    "VL": DatasetSpec("VL", "Human proteins (Vidal)", 3_133, 6_726, "powerlaw", 1.0, 12),
    "SC": DatasetSpec("SC", "Sister cities", 14_274, 20_573, "er", 0.5, 13),
    "GA": DatasetSpec("GA", "Gnutella 30", 36_682, 88_328, "er", 0.15, 14),
    "AM": DatasetSpec("AM", "Amazon TWEB 0302", 262_111, 1_234_877, "rmat", 0.012, 15),
    "AN": DatasetSpec("AN", "Amazon MDS", 334_863, 925_872, "pa", 0.02, 16),
}

_FAMILIES = {
    "powerlaw": powerlaw_configuration,
    "er": erdos_renyi,
    "rmat": rmat,
    "pa": preferential_attachment,
}


def dataset_edges(key: str, scale: float | None = None) -> np.ndarray:
    """Edge list of a stand-in at ``scale`` × the paper's size.

    ``scale=None`` uses the spec's default bench scale. Deterministic in
    the spec's seed, so tests, tables and the benchmark all see the
    same graph.
    """
    spec = DATASETS[key]
    s = spec.bench_scale if scale is None else scale
    n = max(4, int(spec.n_paper * s))
    m = max(4, int(spec.m_paper * s))
    return _FAMILIES[spec.family](n, m, spec.seed)
