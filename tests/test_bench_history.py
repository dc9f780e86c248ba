"""The perf-history cap of ``benchmarks/_shared.py``: ``emit`` keeps at
most ``HISTORY_MAX`` rows per ``BENCH_*.json``."""

import json
import pathlib

import pytest


class TestBenchHistoryCap:
    @pytest.fixture()
    def shared(self, monkeypatch, tmp_path):
        bench_dir = str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks")
        monkeypatch.syspath_prepend(bench_dir)
        import _shared

        monkeypatch.setattr(_shared, "RESULTS_DIR", tmp_path)
        return _shared

    def test_emit_trims_history_to_cap(self, shared, monkeypatch, tmp_path):
        monkeypatch.setattr(shared, "HISTORY_MAX", 3)
        for i in range(5):
            shared.emit("capped", "table", extra={"t_probe_s": float(i)})
        payload = json.loads((tmp_path / "BENCH_capped.json").read_text())
        assert len(payload["history"]) == 3
        assert [row["t_probe_s"] for row in payload["history"]] == [2.0, 3.0, 4.0]
