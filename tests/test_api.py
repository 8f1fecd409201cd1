"""Tests for the `repro.core.api.decompose` front door."""
import inspect

import pytest

import repro.core
from repro.core import decompose
from repro.core.api import VARIANTS
from repro.pyref import decompose_peeling

from .graph_catalog import SMALL_GRAPHS


def _as_dict(df):
    return {(r.src, r.dst): r.trussness for r in df.collect()}


class TestDecomposeApi:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_on_bowtie(self, sparkf, variant):
        edges = SMALL_GRAPHS["bowtie"]
        res = decompose(sparkf, edges, 2, variant=variant, parallelism=2)
        assert _as_dict(res.trussness) == decompose_peeling(edges, 2)

    def test_unknown_variant_raises(self, sparkf):
        with pytest.raises(ValueError, match="unknown variant"):
            decompose(sparkf, SMALL_GRAPHS["triangle"], 2, variant="bogus")

    def test_h_below_one_raises(self, sparkf):
        for variant in VARIANTS:
            with pytest.raises(ValueError, match=">= 1"):
                decompose(sparkf, SMALL_GRAPHS["triangle"], 0, variant)

    def test_base_timeout_raises(self, sparkf):
        with pytest.raises(TimeoutError, match="INF"):
            decompose(
                sparkf, SMALL_GRAPHS["toy"], 3, variant="base", budget_s=0.0
            )

    def test_base_returns_zero_sweeps(self, sparkf):
        res = decompose(sparkf, SMALL_GRAPHS["triangle"], 1, variant="base")
        assert res.sweeps == 0

    def test_trace_passthrough(self, sparkf):
        res = decompose(
            sparkf, SMALL_GRAPHS["triangle"], 1, variant="paral",
            trace=True, parallelism=2,
        )
        assert len(res.trace) == res.sweeps + 1


class TestOptionSurface:
    """``decompose`` is the one entry point, and these are its options:
    a new knob changes this test."""

    def test_decompose_keywords(self):
        params = inspect.signature(decompose).parameters
        assert list(params) == ["spark", "edges", "h", "variant",
                                "parallelism", "trace", "budget_s"]
        assert [p for p in params.values()
                if p.kind is p.KEYWORD_ONLY] == list(params.values())[4:]

    def test_package_exports(self):
        public = {name for name, value in vars(repro.core).items()
                  if not name.startswith("_") and not inspect.ismodule(value)}
        assert public == set(repro.core.__all__) == {
            "decompose", "DecomposeResult", "NotConvergedError"}
