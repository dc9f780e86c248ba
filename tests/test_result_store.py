"""The content-addressed result store (repro.experiments.store).

Corruption must degrade to recomputation (miss + counter), never to an
exception; re-puts must dedup; eviction must be LRU; and with
``REPRO_STORE`` unset the store must not even create a directory.
"""

import json

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.cache import config_key
from repro.experiments.executor import map_configs
from repro.experiments.store import ResultStore
from repro.obs import EventLog
from repro.sim.runner import run_simulation

TINY = ExperimentScale("tiny", days=1.0, seeds=(1, 2))


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)


@pytest.fixture(scope="module")
def cell():
    """One computed (config, summary) pair shared across the module."""
    config = TINY.base_config(scheduler="greedy", erp=0.0).with_overrides(seed=1)
    return config, run_simulation(config)


def test_round_trip_and_counters(tmp_path, cell):
    config, summary = cell
    store = ResultStore(tmp_path / "store")
    assert store.get(config) is None
    assert store.stats["misses"] == 1
    key = store.put(config, summary)
    assert key == config_key(config)
    assert config in store
    assert store.keys() == [key]
    got = store.get(config)
    assert got.as_dict() == summary.as_dict()
    assert store.stats == {"hits": 1, "misses": 1, "puts": 1, "dedup": 0, "corrupt": 0}
    assert len(store) == 1
    assert store.total_bytes() > 0
    described = store.describe()
    assert described["entries"] == 1 and described["hits"] == 1


def test_put_is_dedup_noop(tmp_path, cell):
    config, summary = cell
    store = ResultStore(tmp_path / "store")
    key = store.put(config, summary)
    blob = store._blob_path(key)
    before = blob.read_bytes()
    assert store.put(config, summary) == key
    assert store.stats["dedup"] == 1
    assert blob.read_bytes() == before


def test_executor_blobs_have_no_source_field(tmp_path, cell):
    config, _ = cell
    store = ResultStore(tmp_path / "store")
    map_configs([config], jobs=1, store=store)
    blob = json.loads(store._blob_path(store.key_for(config)).read_text())
    assert set(blob) == {"key", "summary", "sha256"}


def test_legacy_batch_source_blob_is_a_hit(tmp_path, cell):
    """Blobs written while the batched engine existed carry
    ``"source": "batch"``; the field sits outside the integrity hash, so
    they stay hits, are not quarantined, and stream as ``"store"``."""
    from repro.experiments.executor import iter_configs

    config, summary = cell
    store = ResultStore(tmp_path / "store")
    path = store._blob_path(store.put(config, summary))
    path.write_text(json.dumps({**json.loads(path.read_text()), "source": "batch"}))
    assert store.get(config).as_dict() == summary.as_dict()
    assert [src for _, _, src in iter_configs([config], jobs=1, store=store)] == ["store"]
    assert store.stats["corrupt"] == 0 and store.stats["hits"] == 2
    assert path.exists()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda raw: raw[: len(raw) // 2],           # truncated blob
        lambda raw: b"not json at all",              # unparseable
        lambda raw: raw.replace(b'"sha256"', b'"sha999"'),  # schema breach
        lambda raw: json.dumps(
            {**json.loads(raw), "sha256": "0" * 64}
        ).encode(),                                  # integrity mismatch
    ],
    ids=["truncated", "garbage", "missing-hash", "bad-hash"],
)
def test_corrupt_blob_is_a_counted_miss_never_a_crash(tmp_path, cell, mangle):
    config, summary = cell
    store = ResultStore(tmp_path / "store")
    key = store.put(config, summary)
    blob = store._blob_path(key)
    blob.write_bytes(mangle(blob.read_bytes()))
    assert store.get(config) is None
    assert store.stats["corrupt"] == 1
    assert store.stats["misses"] == 1
    assert not blob.exists()  # quarantined
    # The store heals: a fresh put makes the next get a clean hit.
    store.put(config, summary)
    assert store.get(config).as_dict() == summary.as_dict()


def test_evict_is_lru(tmp_path, cell):
    import os

    config, summary = cell
    store = ResultStore(tmp_path / "store")
    configs = [config.with_overrides(seed=s) for s in (1, 2, 3)]
    keys = [store.put(c, summary) for c in configs]
    # Pin distinct mtimes so LRU order is unambiguous, oldest first.
    for age, key in enumerate(keys):
        os.utime(store._blob_path(key), (1000.0 + age, 1000.0 + age))
    assert store.evict() == 0  # no caps, no-op
    assert store.evict(max_entries=2) == 1
    assert not store._blob_path(keys[0]).exists()  # oldest went first
    assert store._blob_path(keys[2]).exists()
    assert store.evict(max_bytes=0) == 2
    assert len(store) == 0


def test_hit_refreshes_lru_position(tmp_path, cell):
    import os

    config, summary = cell
    store = ResultStore(tmp_path / "store")
    configs = [config.with_overrides(seed=s) for s in (1, 2)]
    keys = [store.put(c, summary) for c in configs]
    for age, key in enumerate(keys):
        os.utime(store._blob_path(key), (1000.0 + age, 1000.0 + age))
    store.get(configs[0])  # touch the older blob: now most recently used
    assert store.evict(max_entries=1) == 1
    assert store._blob_path(keys[0]).exists()
    assert not store._blob_path(keys[1]).exists()


def test_inventory_survives_a_blob_vanishing_mid_scan(tmp_path, cell, monkeypatch):
    """Another process sharing the store may quarantine or evict a blob
    between the listing and its ``stat``: the inventory skips it."""
    config, summary = cell
    store = ResultStore(tmp_path / "store")
    keys = [store.put(config.with_overrides(seed=s), summary) for s in (1, 2, 3)]
    size = store._blob_path(keys[1]).stat().st_size
    listing = ResultStore._blobs

    def listing_then_unlink(self):
        paths = listing(self)
        if self._blob_path(keys[0]).exists():
            self._blob_path(keys[0]).unlink()
        return paths

    monkeypatch.setattr(ResultStore, "_blobs", listing_then_unlink)
    assert store.total_bytes() == 2 * size
    described = store.describe()
    assert (described["entries"], described["bytes"]) == (2, 2 * size)
    store.put(config.with_overrides(seed=1), summary)  # back for evict's scan
    assert store.evict(max_entries=1) == 1
    monkeypatch.setattr(ResultStore, "_blobs", listing)
    assert len(store) == 1


def test_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert ResultStore.from_env() is None
    root = tmp_path / "env-store"
    monkeypatch.setenv("REPRO_STORE", str(root))
    store = ResultStore.from_env()
    assert store is not None and store.root == root
    assert not root.exists()  # nothing materializes until the first put


def test_executor_consults_store(tmp_path, cell):
    """map_configs round-trips through an explicit store: first sweep
    populates it, the second is all store hits and byte-identical."""
    config, _summary = cell
    configs = [config.with_overrides(seed=s) for s in TINY.seeds]
    store = ResultStore(tmp_path / "store")
    first = map_configs(configs, jobs=1, store=store)
    assert store.stats["misses"] == 2
    assert store.stats["puts"] == 2
    log = EventLog()
    second = map_configs(configs, jobs=1, store=store, log=log)
    (sweep,) = [span for span in log.spans if span.name == "executor.map"]
    assert sweep.attrs["cache_hits"] == 2
    assert store.stats["hits"] == 2 and store.stats["puts"] == 2
    assert [s.as_dict() for s in second] == [s.as_dict() for s in first]


def _put_all(root, configs, summary, barrier, errors):
    """Concurrent-writer body: put every config, record each failure."""
    store = ResultStore(root)
    barrier.wait()
    for config in configs:
        try:
            store.put(config, summary)
        except Exception:  # the race used to surface here
            with errors.get_lock():
                errors.value += 1


def test_concurrent_writers_of_one_store_never_raise(tmp_path, cell):
    """Several processes putting the same cells into one store: no
    ``put`` may fail (each writer uses its own temp file), every blob
    reads back, and no temp file is left behind."""
    import multiprocessing

    config, summary = cell
    configs = [config.with_overrides(seed=s) for s in range(300)]
    root = tmp_path / "store"
    ctx = multiprocessing.get_context()
    barrier, errors = ctx.Barrier(4), ctx.Value("i", 0)
    procs = [
        ctx.Process(target=_put_all, args=(root, configs, summary, barrier, errors))
        for _ in range(4)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in procs] == [0] * 4
    assert errors.value == 0
    store = ResultStore(root)
    assert len(store) == len(configs)
    assert all(store.get(c).as_dict() == summary.as_dict() for c in configs)
    assert list(root.rglob("*.tmp")) == []


def test_store_stats_match_declared_schema(tmp_path):
    store = ResultStore(tmp_path / "store")
    assert list(store.stats) == ["hits", "misses", "puts", "dedup", "corrupt"]
