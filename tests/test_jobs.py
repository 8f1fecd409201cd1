"""Smoke tests for the spark-submit entrypoints (tiny scales)."""
import sys
from pathlib import Path

import pytest

from repro.bench import harness

JOBS = Path(__file__).resolve().parents[1] / "jobs"
sys.path.insert(0, str(JOBS))

import _session  # noqa: E402
import run_decomposition  # noqa: E402
import tables  # noqa: E402


def _count_calls(monkeypatch) -> list:
    """A list that grows by one on each ``decompose`` call of the tables."""
    calls, real = [], harness.decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "decompose", counted)
    return calls


def _tables(spark, capsys, *argv):
    """``jobs/tables.py``'s output for ``argv``: the host line, then the
    lines of each table."""
    tables.run(spark, list(argv))
    host, *rest = capsys.readouterr().out.splitlines()
    return host, [line for line in rest if line.startswith("|")]


class TestTableJobs:
    def test_table1(self, sparkf, capsys, monkeypatch):
        """T1 makes no Spark call, so no warm-up call either."""
        calls = _count_calls(monkeypatch)
        host, lines = _tables(sparkf, capsys, "--tables", "1", "--scale", "0.02")
        assert host.startswith("host: ") and f"Spark {sparkf.version}" in host
        assert "|E| paper" in lines[0]
        assert len(lines) == 8  # header + separator + 6 datasets
        assert calls == []

    def test_table2(self, sparkf, capsys):
        _, lines = _tables(sparkf, capsys, "--tables", "2")
        assert lines[0].startswith("| h | n-order |")
        assert [line.split(" | ")[1] for line in lines[2:]] == [
            f"({i})" for i in range(5)  # h-support, then 4 sweeps to converge
        ]

    def test_table3_tiny(self, sparkf, capsys, monkeypatch):
        """One untimed call precedes the row's three timed cells, so the
        first cell does not carry the session's start-up."""
        calls = _count_calls(monkeypatch)
        _, lines = _tables(sparkf, capsys, "--tables", "3", "--datasets", "YT",
                           "--h-values", "2", "--scale", "0.05")
        assert lines[0] == "| dataset | h | Base | Paral | Paral+ |"
        assert len(lines) == 3 and lines[2].startswith("| YT | 2 |")
        assert len(calls) == 4

    def test_table4_tiny(self, sparkf, capsys):
        _, lines = _tables(sparkf, capsys, "--tables", "4", "--datasets", "YT",
                           "--h-values", "2", "--parallelism", "1,4",
                           "--scale", "0.05")
        assert "speedup vs Single" in lines[0]
        assert len(lines) == 4  # header + separator + 2 rows
        assert lines[2].endswith("| 1.00x |")

    def test_table4_records_worker_cap(self, sparkf, capsys):
        slots = sparkf.sparkContext.defaultParallelism
        _, lines = _tables(sparkf, capsys, "--tables", "4", "--datasets", "YT",
                           "--h-values", "2", "--parallelism", str(slots + 1),
                           "--scale", "0.05")
        assert f"| {slots + 1} | {slots} |" in lines[2]

    def test_table4_default_levels(self, sparkf, capsys):
        """Without ``--parallelism``, the levels are the powers of two up
        to the session's task slots, each run with that many workers."""
        slots = sparkf.sparkContext.defaultParallelism
        _, lines = _tables(sparkf, capsys, "--tables", "4", "--datasets", "YT",
                           "--h-values", "2", "--scale", "0.05")
        levels = [1 << i for i in range(slots.bit_length())]
        assert [line.split(" | ")[2:4] for line in lines[2:]] == [
            [str(p), str(p)] for p in levels]

    def test_table5_tiny(self, sparkf, capsys):
        _, lines = _tables(sparkf, capsys, "--tables", "5", "--datasets", "YT",
                           "--h-values", "2", "--scale", "0.05")
        assert "Asyn (in-task)" in lines[0] and "Asyn (per-edge)" in lines[0]
        assert len(lines) == 3

    @pytest.mark.parametrize(("argv", "message"), [
        (["--tables", "6"], "no table [6]"),
        (["--datasets", "YT,XX"], "no dataset ['XX']"),
        (["--h-values", "2,0"], "--h-values must all be at least 1"),
        (["--parallelism", "0"], "--parallelism must all be at least 1"),
        (["--budget", "-1"], "--budget must be a number of seconds, at least 0"),
        (["--budget", "nan"], "--budget must be a number of seconds, at least 0"),
        (["--scale", "0"], "--scale must be a number above 0"),
        (["--scale", "-0.5"], "--scale must be a number above 0"),
        (["--scale", "nan"], "--scale must be a number above 0"),
    ], ids=["table", "dataset", "h", "parallelism", "budget", "budget-nan",
            "scale-zero", "scale-negative", "scale-nan"])
    def test_unknown_selection_is_rejected(self, sparkf, capsys, argv, message):
        with pytest.raises(SystemExit):
            tables.run(sparkf, argv)
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_run_decomposition(self, sparkf):
        hist, sweeps = run_decomposition.run(sparkf, "YT", 2, "paral+", scale=0.05)
        assert sum(hist.values()) > 0
        assert sweeps >= 1
        assert all(k >= 2 for k in hist)

    @pytest.mark.parametrize(("argv", "message"), [
        (["--dataset", "XX"], "invalid choice"),
        (["--dataset", "YT", "--variant", "fast"], "invalid choice"),
        (["--dataset", "YT", "--h", "0"], "--h must be at least 1"),
        (["--dataset", "YT", "--scale", "0"], "--scale must be a number above 0"),
        (["--dataset", "YT", "--scale", "nan"], "--scale must be a number above 0"),
    ], ids=["dataset", "variant", "h", "scale-zero", "scale-nan"])
    def test_run_decomposition_rejects_before_spark(self, monkeypatch, capsys,
                                                    argv, message):
        started = []
        monkeypatch.setattr(_session, "get_spark", started.append)
        with pytest.raises(SystemExit) as exc:
            run_decomposition.main(argv)
        assert exc.value.code == 2 and started == []
        assert message in capsys.readouterr().err
