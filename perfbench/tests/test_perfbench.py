"""Checks of the benchmark itself: its inputs, and the schema of what
``--smoke`` prints against ``BENCHMARK.json``.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.workloads import WORKLOADS, digest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))  # for repro.pyref


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_seeded_and_exact(name):
    w = WORKLOADS[name]
    a, b, c = w.edges(5), w.edges(5), w.edges(6)
    assert np.array_equal(a, b)
    assert len(a) == w.m
    assert (a[:, 0] < a[:, 1]).all()
    assert len(np.unique(a, axis=0)) == w.m
    assert digest(a) != digest(c)  # another seed relabels the graph


def test_relabelling_keeps_the_work():
    """Seeds differ only in vertex ids and edge order, so degrees, the
    trussness histogram and the sweep count are the same."""
    from repro.pyref import serial_hindex_decompose

    w = WORKLOADS["ga-h2"]
    runs = []
    for seed in (0, 9):
        edges = w.edges(seed)
        truss, sweeps = serial_hindex_decompose(
            [tuple(e) for e in edges.tolist()], w.h)
        degrees = sorted(np.unique(edges, return_counts=True)[1].tolist())
        runs.append((degrees, sorted(truss.values()), sweeps))
    assert runs[0] == runs[1]


def test_smoke_emits_every_metric_and_passes_the_gate():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for v in out["metrics"].values():
        assert isinstance(v["value"], (int, float))
