"""Tests for the `repro.core.api.decompose` front door."""
import pytest

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

