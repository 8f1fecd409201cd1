"""Benchmark-side fixtures.

Benchmarks use the session SparkSession at its default shuffle-partition
setting (the provided root conftest picks 64 so shuffle paths are
genuinely exercised); nothing to lower here. The only Base budget is
``BUDGET_S`` in ``bench_table3_efficiency.py``, the one table that runs
Base.
"""
