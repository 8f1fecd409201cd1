"""Tests for the synth_data module's graph re-exports and bridge."""
import pytest

from repro import synth_data


class TestGraphExtension:
    def test_reexports(self):
        assert set(synth_data.DATASETS) == {"YT", "VL", "SC", "GA", "AM", "AN"}
        assert len(synth_data.toy_edges()) == 20

    @pytest.mark.parametrize("key", ["YT", "SC"])
    def test_graph_edges_bridge(self, sparkf, key):
        df = synth_data.graph_edges(sparkf, key, scale=0.02)
        rows = df.collect()
        assert rows, "non-empty graph"
        assert all(r.src < r.dst for r in rows)
        assert df.columns == ["src", "dst", "eid"]
