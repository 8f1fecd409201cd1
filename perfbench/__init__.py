"""Benchmark of ``repro.core.api.decompose``; run ``python3 perfbench/run.py --help``."""
