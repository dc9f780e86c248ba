"""The process-pool cell executor (repro.experiments.executor).

The load-bearing property is determinism: whatever ``jobs`` is, a sweep
must serialize byte-identically to the serial loop.  The rest covers
the worker-count knob, grid-order bookkeeping, result-store interplay
and the executor's counts on the event log.
"""

import json

import pytest

from repro.experiments import ExperimentScale, run_erp_sweep
from repro.experiments.executor import (
    default_jobs,
    iter_configs,
    map_cells,
    map_configs,
    sweep_grid,
)
from repro.obs import EventLog
from repro.sim.runner import run_simulation

#: Small enough that a 4-process fan-out finishes in seconds, big
#: enough (2 seeds x 2 erps x 2 schemes) that reassembly order matters.
TINY = ExperimentScale("tiny", days=1.0, seeds=(1, 2))
SCHEDS = ("greedy", "combined")
ERPS = (0.0, 0.6)


def test_parallel_sweep_byte_identical_to_serial():
    serial = run_erp_sweep(TINY, SCHEDS, ERPS, jobs=1)
    parallel = run_erp_sweep(TINY, SCHEDS, ERPS, jobs=4)
    assert json.dumps(parallel, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_map_configs_matches_direct_runs():
    cfg = TINY.base_config(scheduler="greedy", erp=0.2)
    configs = [cfg.with_overrides(seed=s) for s in TINY.seeds]
    pooled = map_configs(configs, jobs=2)
    direct = [run_simulation(c) for c in configs]
    assert [p.as_dict() for p in pooled] == [d.as_dict() for d in direct]


def test_iter_configs_streams_every_cell_once(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    cfg = TINY.base_config(scheduler="greedy", erp=0.2)
    configs = [cfg.with_overrides(seed=s) for s in TINY.seeds]
    rows = list(iter_configs(configs, jobs=1))
    assert sorted(i for i, _s, _src in rows) == [0, 1]
    assert all(src == "run" for _i, _s, src in rows)


def test_sweep_grid_is_scheduler_major():
    keys = sweep_grid(TINY, SCHEDS, ERPS)
    assert keys[0] == ("greedy", 0.0, 1)
    assert keys == [
        (sched, erp, seed) for sched in SCHEDS for erp in ERPS for seed in TINY.seeds
    ]
    assert len(keys) == len(SCHEDS) * len(ERPS) * len(TINY.seeds)


def test_map_cells_keys_every_cell():
    cells = map_cells(TINY, ("greedy",), (0.0,), jobs=1)
    assert set(cells) == {("greedy", 0.0, 1), ("greedy", 0.0, 2)}
    for summary in cells.values():
        assert summary.sim_time_s > 0


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3


@pytest.mark.parametrize("spelling", ["auto", "AUTO", " Auto "])
def test_default_jobs_auto_resolves_to_cpu_count(monkeypatch, spelling):
    import os

    monkeypatch.setenv("REPRO_JOBS", spelling)
    assert default_jobs() == max(1, os.cpu_count() or 1)


@pytest.mark.parametrize("bad", ["0", "-1", "two"])
def test_default_jobs_rejects_bad_values(monkeypatch, bad):
    monkeypatch.setenv("REPRO_JOBS", bad)
    with pytest.raises(ValueError):
        default_jobs()


def test_jobs_argument_validated():
    with pytest.raises(ValueError):
        map_configs([], jobs=0)


def test_spawn_start_method_byte_identical(monkeypatch):
    """The executor must stay deterministic under ``spawn`` — workers
    that re-import everything from scratch produce the same bytes as
    the in-process serial loop."""
    import multiprocessing

    if "spawn" not in multiprocessing.get_all_start_methods():  # pragma: no cover
        pytest.skip("spawn start method unavailable")
    serial = map_cells(TINY, ("greedy",), (0.0,), jobs=1)
    monkeypatch.setenv("REPRO_START_METHOD", "spawn")
    spawned = map_cells(TINY, ("greedy",), (0.0,), jobs=2)
    assert json.dumps(
        {"|".join(map(str, k)): v.as_dict() for k, v in spawned.items()},
        sort_keys=True,
    ) == json.dumps(
        {"|".join(map(str, k)): v.as_dict() for k, v in serial.items()},
        sort_keys=True,
    )


def test_invalid_start_method_rejected(monkeypatch):
    from repro.experiments.executor import _pool_start_method

    monkeypatch.setenv("REPRO_START_METHOD", "teleport")
    with pytest.raises(ValueError, match="REPRO_START_METHOD"):
        _pool_start_method()


def test_executor_counters_and_cache(tmp_path):
    from repro.experiments.store import ResultStore

    store = ResultStore(tmp_path / "store")
    cfg = TINY.base_config(scheduler="greedy", erp=0.0)
    configs = [cfg.with_overrides(seed=s) for s in TINY.seeds]
    log = EventLog()
    first = map_configs(configs, jobs=1, log=log, store=store)
    (sweep,) = [span for span in log.spans if span.name == "executor.map"]
    assert sweep.attrs == {"cells": 2, "jobs": 1, "cache_hits": 0}
    # Second pass: everything is a parent-side store hit, no pool work.
    log2 = EventLog()
    second = map_configs(configs, jobs=1, log=log2, store=store)
    (sweep2,) = [span for span in log2.spans if span.name == "executor.map"]
    assert sweep2.attrs == {"cells": 2, "jobs": 1, "cache_hits": 2}
    hits = [m["cell"] for m in log2.marks if m["name"] == "executor.store_hit"]
    assert hits == [0, 1]
    assert [span.name for span in log2.spans] == ["executor.map"]  # nothing ran
    assert [s.as_dict() for s in second] == [s.as_dict() for s in first]
