"""Smoke tests for the spark-submit entrypoints (tiny scales)."""
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"
sys.path.insert(0, str(JOBS))

import run_decomposition  # noqa: E402
import table1_datasets  # noqa: E402
import table2_toy_convergence  # noqa: E402
import table3_efficiency  # noqa: E402
import table4_speedup  # noqa: E402
import table5_iterations  # noqa: E402


class TestTableJobs:
    def test_table1(self):
        out = table1_datasets.run(scale=0.02)
        assert "|E| paper" in out
        assert out.count("\n") == 7  # header + separator + 6 datasets

    def test_table2(self, sparkf):
        out = table2_toy_convergence.run(sparkf, h=2)
        assert "(0)" in out and "converged after 4 sweeps" in out

    def test_table3_tiny(self, sparkf):
        out = table3_efficiency.run(
            sparkf, ["YT"], [2], budget_s=300.0, scale=0.05
        )
        assert "Paral+" in out and "YT" in out

    def test_table4_tiny(self, sparkf):
        out = table4_speedup.run(sparkf, ["YT"], 2, [1, 4], scale=0.05)
        assert "speedup vs Single" in out
        assert out.count("\n") == 3  # header + separator + 2 rows

    def test_table4_records_worker_cap(self, sparkf):
        slots = sparkf.sparkContext.defaultParallelism
        out = table4_speedup.run(sparkf, ["YT"], 2, [slots + 1], scale=0.05)
        assert f"| {slots + 1} | {slots} |" in out

    def test_table5_tiny(self, sparkf):
        out = table5_iterations.run(sparkf, ["YT"], [2], scale=0.05)
        assert "Asyn (chromatic)" in out and "Asyn (per-edge)" in out

    def test_run_decomposition(self, sparkf):
        hist, sweeps = run_decomposition.run(sparkf, "YT", 2, "paral+", scale=0.05)
        assert sum(hist.values()) > 0
        assert sweeps >= 1
        assert all(k >= 2 for k in hist)
