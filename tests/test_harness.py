"""Tests for the experiment harness (timing, INF, table rendering)."""
import pytest

from repro.bench import (
    INF,
    fmt_seconds,
    markdown_table,
    run_cell,
    run_serial_iterations_cell,
    table1,
)
from repro.graphgen import DATASETS


class TestFormatting:
    def test_fmt_seconds(self):
        assert fmt_seconds(1.234) == "1.23s"

    def test_fmt_inf(self):
        assert fmt_seconds(INF) == "INF"

    def test_markdown_table_shape(self):
        out = markdown_table(["a", "b"], [[1, 2], [3, 4]])
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4


class TestTable1:
    def test_has_six_rows(self):
        _, rows = table1(scale=0.02)
        assert len(rows) == 6
        assert {r[0] for r in rows} == set(DATASETS)

    def test_row_shape(self):
        key, name, nv, ne, gv, ge = table1(scale=0.02)[1][0]
        assert 0 < gv <= nv and 0 < ge <= ne


class TestCells:
    """Cells at minuscule scale: the harness plumbing, not performance."""

    def test_base_cell_reports_inf_on_zero_budget(self, sparkf):
        secs, sweeps = run_cell(sparkf, "SC", 2, "base", budget_s=0.0, scale=0.02)
        assert secs == INF and sweeps == 0

    def test_base_cell_finishes_small(self, sparkf):
        secs, _ = run_cell(sparkf, "YT", 1, "base", scale=0.05)
        assert 0 < secs < 300

    def test_serial_iterations_cell_reports_inf_on_zero_budget(self):
        assert run_serial_iterations_cell("SC", 2, scale=0.02, budget_s=0.0) == INF

    def test_serial_iterations_cell_finishes_small(self):
        assert run_serial_iterations_cell("YT", 2, scale=0.03) >= 1

    @pytest.mark.parametrize("algo", ["paral", "asyn"])
    def test_iterations_cell(self, sparkf, algo):
        _, sweeps = run_cell(sparkf, "YT", 2, algo, scale=0.03)
        assert sweeps >= 1

    @pytest.mark.parametrize(("variant", "parallelism"),
                             [("paral", 1), ("paral", 16), ("paral+", 4)])
    def test_timed_cell(self, sparkf, variant, parallelism):
        secs, sweeps = run_cell(sparkf, "YT", 2, variant, parallelism=parallelism,
                                scale=0.05)
        assert secs > 0 and sweeps >= 1
