"""The result store's on-disk formats and the per-cell keying work.

Keys and blob bytes are a compatibility contract: a store filled by
earlier code must stay all hits under the same code token, and a new
writer must produce the bytes an earlier reader expects.  These tests
pin both, plus the executor's one-key-per-cell rule.
"""

import hashlib
import json
import os

import pytest

from repro.experiments import cache
from repro.experiments import store as store_mod
from repro.experiments.common import ExperimentScale
from repro.experiments.executor import grid_configs, iter_configs, map_cells
from repro.experiments.store import ResultStore
from repro.sim.config import SimulationConfig

TINY = ExperimentScale("tiny", days=0.1, seeds=(1, 2))
SCHEDS = ("greedy", "partition")
ERPS = (0.0, 0.5)
CELLS = len(SCHEDS) * len(ERPS) * len(TINY.seeds)

#: ``config_key(SimulationConfig.experiment(seed=3, erp=0.4))`` under the
#: code token below.  Changing it changes every stored cell's address.
GOLDEN_KEY = "7657bed2a79b1dd3cb2638e436fe3af47c0cf5748767c95423900e7589c9d73d"


@pytest.fixture(autouse=True)
def _fixed_code_token(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.setattr(
        cache, "code_token", lambda: {"version": "0.0.0", "git_rev": None}
    )


def _reference_blob_text(key, summary_dict):
    """A blob as the writer has always encoded it: ``json.dumps`` of the
    whole blob with sorted keys, the digest over the summary's own
    ``json.dumps``."""
    digest = hashlib.sha256(
        json.dumps(summary_dict, sort_keys=True).encode()
    ).hexdigest()
    return json.dumps(
        {"key": key, "summary": summary_dict, "sha256": digest}, sort_keys=True
    )


def test_golden_key():
    assert cache.config_key(SimulationConfig.experiment(seed=3, erp=0.4)) == GOLDEN_KEY


def test_canonical_json_is_sorted_json_dumps():
    payload = {"b": [1.5, None, True], "a": {"z": 0.1, "y": "é"}, "c": 3}
    assert cache.canonical_json(payload) == json.dumps(payload, sort_keys=True)


def test_written_blob_bytes_match_the_reference_encoding(tmp_path):
    store = ResultStore(tmp_path / "store")
    map_cells(TINY, SCHEDS[:1], ERPS[:1], jobs=1, store=store)
    assert len(store) == len(TINY.seeds)
    for key in store.keys():
        raw = store._blob_path(key).read_bytes()
        blob = json.loads(raw)
        assert blob["key"] == key
        assert raw == _reference_blob_text(key, blob["summary"]).encode()
        assert os.stat(store._blob_path(key)).st_mode & 0o777 == 0o644


def test_store_in_the_reference_format_is_all_hits(tmp_path):
    keys, configs = grid_configs(TINY, SCHEDS, ERPS)
    fresh = map_cells(TINY, SCHEDS, ERPS, jobs=1)
    root = tmp_path / "store"
    for cell, cfg in zip(keys, configs):
        key = cache.config_key(cfg)
        path = root / "objects" / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_reference_blob_text(key, fresh[cell].as_dict()))
    store = ResultStore(root)
    sources = [src for _, _, src in iter_configs(configs, jobs=1, store=store)]
    assert sources == ["store"] * CELLS
    assert store.stats == {
        "hits": CELLS, "misses": 0, "puts": 0, "dedup": 0, "corrupt": 0,
    }
    assert map_cells(TINY, SCHEDS, ERPS, jobs=1, store=store) == fresh


def test_map_cells_derives_one_key_per_cell(tmp_path, monkeypatch):
    derived = []

    def counting_key(config):
        derived.append(config)
        return cache.config_key(config)

    monkeypatch.setattr(store_mod, "config_key", counting_key)
    store = ResultStore(tmp_path / "store")
    map_cells(TINY, SCHEDS, ERPS, jobs=1, store=store)  # every cell a miss
    assert store.stats["puts"] == CELLS
    assert len(derived) == CELLS
    map_cells(TINY, SCHEDS, ERPS, jobs=1, store=store)  # every cell a hit
    assert store.stats["hits"] == CELLS
    assert len(derived) == 2 * CELLS


def test_grid_configs_match_the_per_seed_override_form():
    overrides = {"n_rvs": 2, "adaptive_erp": True}
    keys, configs = grid_configs(TINY, SCHEDS, ERPS, **overrides)
    expected = [
        TINY.base_config(scheduler=sched, erp=erp, **overrides).with_overrides(seed=seed)
        for sched, erp, seed in keys
    ]
    assert configs == expected
    assert [cache.config_key(c) for c in configs] == [
        cache.config_key(c) for c in expected
    ]
