"""Tests for cell keying and the executor's result-store lookup."""

import json

import pytest

from repro.experiments.cache import cache_lookup, config_key, summary_from_dict
from repro.experiments.executor import map_configs
from repro.experiments.store import ResultStore, _payload_digest
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_seeds, run_simulation


def quick_cfg(**kw):
    base = dict(sim_time_s=0.2 * 86400, seed=5)
    base.update(kw)
    return SimulationConfig.small(**base)


class TestCacheKey:
    def test_stable(self):
        assert config_key(quick_cfg()) == config_key(quick_cfg())

    def test_sensitive_to_any_field(self):
        assert config_key(quick_cfg()) != config_key(quick_cfg(seed=6))
        assert config_key(quick_cfg()) != config_key(quick_cfg(erp=0.5))

    def test_sensitive_to_code_version(self, monkeypatch):
        # The key embeds the package version + git revision: a code
        # change must never replay cells produced by older code.
        from repro.experiments import cache as cache_mod

        base = config_key(quick_cfg())
        monkeypatch.setattr(
            cache_mod,
            "code_token",
            lambda: {"version": "999.0", "git_rev": "deadbeef"},
        )
        assert config_key(quick_cfg()) != base

    def test_code_token_fields(self):
        from repro.experiments.cache import code_token

        token = code_token()
        assert token["version"]
        # In this checkout the package lives in a git repo.
        assert "git_rev" in token


class TestSummaryRoundtrip:
    def test_from_dict(self):
        s = run_simulation(quick_cfg())
        rebuilt = summary_from_dict(s.as_dict())
        assert rebuilt == s
        assert isinstance(rebuilt.n_recharges, int)


SENTINEL_M = 123456.0


def _poison(store, cfg):
    """Overwrite a stored cell's travel distance (re-signing the blob so
    the integrity check passes): a call that re-ran the cell instead of
    reading the store would not see the sentinel value."""
    path = store._blob_path(store.key_for(cfg))
    blob = json.loads(path.read_text())
    blob["summary"]["traveling_distance_m"] = SENTINEL_M
    blob["sha256"] = _payload_digest(blob["summary"])
    path.write_text(json.dumps(blob))


class TestCachedRun:
    """Cells answered from a :class:`ResultStore` — the only cache."""

    @pytest.fixture(autouse=True)
    def _no_ambient_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)

    def test_disabled_without_env(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cache_lookup(quick_cfg(), None) is None
        (s,) = map_configs([quick_cfg()])
        assert s.sim_time_s > 0
        assert list(tmp_path.iterdir()) == []  # no store, nothing written

    def test_hit_returns_identical(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        (first,) = map_configs([quick_cfg()])
        assert len(ResultStore(tmp_path)) == 1
        (second,) = map_configs([quick_cfg()])
        assert second == first
        assert cache_lookup(quick_cfg(), ResultStore(tmp_path)) == first

    def test_hit_skips_execution(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = quick_cfg()
        map_configs([cfg], store=store)
        _poison(store, cfg)
        (hit,) = map_configs([cfg], store=store)
        assert hit.traveling_distance_m == SENTINEL_M

    def test_seed_fanout_mixed_hits(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        cfg = quick_cfg()
        first = run_seeds(cfg, [1, 2])
        assert len(ResultStore(tmp_path)) == 2
        _poison(ResultStore(tmp_path), cfg.with_overrides(seed=1))
        # Seed 3 is a miss, 1 and 2 hit.
        out = run_seeds(cfg, [1, 2, 3], jobs=2)
        assert len(out) == 3
        assert len(ResultStore(tmp_path)) == 3
        assert out[0].traveling_distance_m == SENTINEL_M
        assert out[1] == first[1]
        assert out[2] == run_simulation(cfg.with_overrides(seed=3))

    def test_run_cell_uses_cache(self, monkeypatch, tmp_path):
        from repro.experiments.common import ExperimentScale, run_cell

        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        scale = ExperimentScale("micro", days=0.2, seeds=(1,))
        kwargs = dict(
            n_sensors=30, n_targets=2, side_length_m=50.0,
            battery_capacity_j=300.0, initial_charge_range=(0.5, 0.8),
        )
        a = run_cell(scale, **kwargs)
        assert len(ResultStore(tmp_path)) == 1
        b = run_cell(scale, **kwargs)
        assert a == b
