"""Tests for the `repro.core.api.decompose` front door."""
import inspect
import math

import numpy as np
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
    @pytest.mark.parametrize("edges", [SMALL_GRAPHS["bowtie"], []],
                             ids=["bowtie", "empty"])
    def test_every_variant_on_bowtie(self, arrow_sparkf, edges, variant):
        """The same table, schema included, whatever the session's Arrow
        setting."""
        res = decompose(arrow_sparkf, edges, 2, variant=variant, parallelism=2)
        assert res.trussness.schema.simpleString() == (
            "struct<src:bigint,dst:bigint,trussness:bigint>")
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

    def test_h_beyond_the_graph(self, sparkf):
        """Any h >= n - 1 gives the answer of h = n - 1, 13 on the
        14-vertex toy graph."""
        edges = SMALL_GRAPHS["toy"]
        res = decompose(sparkf, edges, 10**4, "paral+", parallelism=2)
        assert _as_dict(res.trussness) == decompose_peeling(edges, 13)

    def test_trace_passthrough(self, sparkf):
        res = decompose(
            sparkf, SMALL_GRAPHS["triangle"], 1, variant="paral",
            trace=True, parallelism=2,
        )
        assert len(res.trace) == res.sweeps + 1


class TestOptionChecks:
    """Options are checked before any Spark job, with every variant."""

    EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]

    def _raise_before_any_job(self, sparkf, variant, calls, match):
        """Each call of ``decompose`` with the options ``calls`` raises
        :class:`ValueError` matching ``match``, and none runs a Spark job."""
        sc, group = sparkf.sparkContext, f"bad-options-{variant}"
        sc.setJobGroup(group, "calls with bad options")
        try:
            for options in calls:
                with pytest.raises(ValueError, match=match):
                    decompose(sparkf, self.EDGES, variant=variant, **options)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bad_options_raise_before_any_job(self, sparkf, variant):
        """``parallelism=-1`` once gave every edge a trussness of
        ``UNBOUNDED + 2``, and Base at ``h=2.5`` the h=∞ answer."""
        self._raise_before_any_job(sparkf, variant, [
            dict(h=h, parallelism=parallelism)
            for h, parallelism in [(2, -1), (2, 0), (2, 2.5), (0, None),
                                   (2.5, None), (True, None), (2, True)]
        ], "integer >= 1")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bad_budget_raises_before_any_job(self, sparkf, variant):
        """Base once raised :class:`TypeError` at ``"10"`` after its
        initial supports, never stopped at NaN and took ``True`` as 1 s."""
        self._raise_before_any_job(sparkf, variant, [
            dict(h=2, budget_s=budget_s)
            for budget_s in ("10", math.nan, -1.0, True)
        ], "number >= 0")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_numpy_integers_are_accepted(self, sparkf, variant):
        res = decompose(sparkf, self.EDGES, np.int64(2), variant,
                        parallelism=np.int64(2))
        assert _as_dict(res.trussness) == decompose_peeling(self.EDGES, 2)


class TestBaseInputForms:
    """Base takes every edge input ``decompose`` takes; a triangle given
    with reversed and repeated edges."""

    EDGES = [(2, 1), (1, 3), (3, 2), (1, 2)]
    EXPECTED = {(1, 2): 3, (1, 3): 3, (2, 3): 3}

    def _base(self, sparkf, edges):
        return _as_dict(decompose(sparkf, edges, 1, "base").trussness)

    def test_from_list(self, sparkf):
        assert self._base(sparkf, self.EDGES) == self.EXPECTED

    def test_from_pandas(self, sparkf):
        import pandas as pd

        pdf = pd.DataFrame(self.EDGES, columns=["src", "dst"])
        assert self._base(sparkf, pdf) == self.EXPECTED

    def test_from_spark(self, sparkf):
        df = sparkf.createDataFrame(self.EDGES, "u long, v long")
        assert self._base(sparkf, df) == self.EXPECTED


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
