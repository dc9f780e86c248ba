"""The persistent warm worker pool (repro.experiments.pool).

The two load-bearing properties: byte-identity with the serial
executor (pool reuse amortizes cost, never state), and resilience —
crashed workers are respawned with their in-flight tasks resubmitted,
task exceptions propagate without poisoning the pool, a pool opened
for one call leaves no live worker behind, and nothing pool-related is
even imported before the first multi-worker fan-out.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.executor import _TASK_FNS, map_configs, submit_grid
from repro.experiments.pool import WarmPool, get_warm_pool, shutdown_warm_pool
from repro.obs import Instruments
from repro.sim.runner import run_simulation

TINY = ExperimentScale("tiny", days=1.0, seeds=(1, 2))


@pytest.fixture(autouse=True)
def _clean_pool_env(monkeypatch):
    """Isolate every test from ambient pool/store knobs and make sure
    no shared pool outlives (or predates) a test."""
    for var in ("REPRO_STORE", "REPRO_START_METHOD"):
        monkeypatch.delenv(var, raising=False)
    shutdown_warm_pool()
    yield
    shutdown_warm_pool()


def _tiny_configs():
    cfg = TINY.base_config(scheduler="greedy", erp=0.2)
    return [cfg.with_overrides(seed=s) for s in TINY.seeds]


def test_warm_sweep_byte_identical_to_serial():
    configs = _tiny_configs()
    serial = map_configs(configs, jobs=1)
    warm = map_configs(configs, jobs=2, warm=True)
    assert json.dumps([s.as_dict() for s in warm], sort_keys=True) == json.dumps(
        [s.as_dict() for s in serial], sort_keys=True
    )


def test_pool_survives_across_calls_and_counts_warm_hits():
    configs = _tiny_configs()
    obs = Instruments()
    map_configs(configs, jobs=2, warm=True)
    pool = get_warm_pool(2)
    pids_before = sorted(w.proc.pid for w in pool._workers.values())
    map_configs(configs, jobs=2, warm=True, instruments=obs)
    assert sorted(w.proc.pid for w in pool._workers.values()) == pids_before
    assert pool.stats["warm_hits"] >= 1
    assert obs.snapshot()["counters"]["pool.warm_hits"] == 1


def test_ping_and_healthy():
    with WarmPool(jobs=2) as pool:
        pids = pool.ping()
        assert pids  # at least one worker answered
        assert all(isinstance(p, int) for p in pids)
        assert pool.healthy
        assert pool.workers_alive == 2
    assert not pool.healthy


def test_per_call_pool_leaves_no_live_children():
    """``warm=False`` opens a pool for the call and joins its workers
    before returning, so no child outlives the call (and the children's
    CPU shows up in ``RUSAGE_CHILDREN``)."""
    configs = _tiny_configs()
    serial = map_configs(configs, jobs=1)
    pooled = map_configs(configs, jobs=2)
    assert multiprocessing.active_children() == []
    assert [p.as_dict() for p in pooled] == [s.as_dict() for s in serial]
    job = submit_grid(TINY, ("greedy",), (0.2,), jobs=2)
    cells = job.results()
    assert multiprocessing.active_children() == []
    assert [cells[("greedy", 0.2, s)].as_dict() for s in TINY.seeds] == [
        s.as_dict() for s in serial
    ]


def _fail_seed_2(config):
    if config.seed == 2:
        raise ValueError("cell failed")
    return run_simulation(config)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="task-table patching needs fork inheritance",
)
def test_per_call_pool_joins_workers_when_a_cell_raises(monkeypatch):
    monkeypatch.setenv("REPRO_START_METHOD", "fork")
    monkeypatch.setitem(_TASK_FNS, "run", _fail_seed_2)
    with pytest.raises(ValueError, match="cell failed"):
        map_configs(_tiny_configs(), jobs=2)
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="cell failed"):
        submit_grid(TINY, ("greedy",), (0.2,), jobs=2).results()
    assert multiprocessing.active_children() == []


def _die_once_then_answer(flag_path):
    """Worker task: hard-kill the worker on first sight of the payload,
    succeed on the resubmission (the flag file survives the crash)."""
    if not os.path.exists(flag_path):
        open(flag_path, "w").close()
        os._exit(42)
    return "survived"


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash-injection patching needs fork inheritance",
)
def test_crashed_worker_respawned_and_task_resubmitted(tmp_path, monkeypatch):
    monkeypatch.setitem(_TASK_FNS, "die-once", _die_once_then_answer)
    obs = Instruments()
    with WarmPool(jobs=1, start_method="fork") as pool:
        out = pool.run("die-once", [str(tmp_path / "crashed.flag")], instruments=obs)
    assert out == ["survived"]
    assert pool.stats["respawns"] == 1
    assert obs.snapshot()["counters"]["pool.respawns"] == 1


def _raise_for_test(payload):
    raise ValueError(f"boom: {payload}")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="task-table patching needs fork inheritance",
)
def test_task_exception_propagates_and_pool_stays_usable(monkeypatch):
    monkeypatch.setitem(_TASK_FNS, "boom", _raise_for_test)
    with WarmPool(jobs=1, start_method="fork") as pool:
        with pytest.raises(ValueError, match="boom"):
            pool.run("boom", ["x"])
        assert pool.ping()  # same workers still answer


def test_idle_reap_then_transparent_cold_start():
    with WarmPool(jobs=1, idle_timeout_s=0.05) as pool:
        pool.ping()
        assert pool.workers_alive == 1
        time.sleep(0.1)
        assert pool.reap_if_idle()
        assert pool.workers_alive == 0
        assert pool.stats["reaps"] == 1
        assert pool.ping()  # next run cold-starts transparently
        assert pool.stats["cold_starts"] == 2


def test_get_warm_pool_reuses_and_resizes():
    a = get_warm_pool(2)
    assert get_warm_pool(2) is a
    b = get_warm_pool(3)  # different shape: old pool closed, new one built
    assert b is not a
    assert a._closed
    shutdown_warm_pool()
    assert b._closed
    shutdown_warm_pool()  # idempotent


def test_closed_pool_rejects_runs():
    pool = WarmPool(jobs=1)
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.run("ping", [None])


def test_unknown_task_kind_raises():
    with WarmPool(jobs=1) as pool:
        with pytest.raises((ValueError, RuntimeError)):
            pool.run("no-such-kind", [None])


def test_importing_executor_spawns_nothing():
    """Zero-overhead contract: importing the executor must not import
    the pool/store/service modules, start processes, or create dirs."""
    code = (
        "import sys\n"
        "import repro.experiments.executor\n"
        "import repro.experiments\n"
        "import multiprocessing\n"
        "lazy = [m for m in ('repro.experiments.pool',"
        " 'repro.experiments.store', 'repro.experiments.service')"
        " if m in sys.modules]\n"
        "print(json.dumps({'lazy': lazy,"
        " 'children': len(multiprocessing.active_children())}))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", "import json\n" + code],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(out.stdout)
    assert report == {"lazy": [], "children": 0}


def test_worker_killed_midstream_does_not_hang():
    """A SIGKILLed worker between runs is pruned and replaced on the
    next run — the pool never deadlocks on a dead process."""
    with WarmPool(jobs=1) as pool:
        pool.ping()
        (worker,) = pool._workers.values()
        os.kill(worker.proc.pid, signal.SIGKILL)
        worker.proc.join(timeout=5.0)
        assert pool.workers_alive == 0
        assert pool.ping()  # replacement worker answers
        assert pool.workers_alive == 1
