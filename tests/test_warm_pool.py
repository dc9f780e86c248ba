"""The per-call worker pool (repro.experiments.pool).

The two load-bearing properties: byte-identity with the serial
executor, and resilience — crashed workers are respawned with their
in-flight tasks resubmitted once, a task that keeps killing workers
raises instead of looping, task exceptions propagate without poisoning
the pool, a pool opened for one call leaves no live worker behind, and
nothing pool-related is even imported before the first multi-worker
fan-out.
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
from repro.experiments.executor import _TASK_FNS, iter_configs, map_configs
from repro.experiments.pool import WarmPool
from repro.obs import POOL_STATS, Instruments, StatField, StatsSchema
from repro.sim.runner import run_simulation

TINY = ExperimentScale("tiny", days=1.0, seeds=(1, 2))


@pytest.fixture(autouse=True)
def _clean_pool_env(monkeypatch):
    """Isolate every test from ambient pool/store knobs."""
    for var in ("REPRO_STORE", "REPRO_START_METHOD"):
        monkeypatch.delenv(var, raising=False)


def _tiny_configs():
    cfg = TINY.base_config(scheduler="greedy", erp=0.2)
    return [cfg.with_overrides(seed=s) for s in TINY.seeds]


def test_ping_and_healthy():
    with WarmPool(jobs=2) as pool:
        pids = pool.ping()
        assert pids  # at least one worker answered
        assert all(isinstance(p, int) for p in pids)
        assert pool.healthy
        assert pool.workers_alive == 2
    assert not pool.healthy


def test_per_call_pool_leaves_no_live_children():
    """Every fan-out opens a pool for the call and joins its workers
    before returning, so no child outlives the call (and the children's
    CPU shows up in ``RUSAGE_CHILDREN``)."""
    configs = _tiny_configs()
    serial = map_configs(configs, jobs=1)
    pooled = map_configs(configs, jobs=2)
    assert multiprocessing.active_children() == []
    assert [p.as_dict() for p in pooled] == [s.as_dict() for s in serial]
    streamed = {i: summary for i, summary, _src in iter_configs(configs, jobs=2)}
    assert multiprocessing.active_children() == []
    assert [streamed[i].as_dict() for i in range(len(configs))] == [
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
        list(iter_configs(_tiny_configs(), jobs=2))
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


def _always_die(payload):
    """Worker task: hard-kill the worker every time (a deterministic
    C-level crash or OOM kill, as far as the parent can tell)."""
    os._exit(9)


def _die_on_seed_2(config):
    if config.seed == 2:
        os._exit(9)
    return run_simulation(config)


class _RespawnLoop(Exception):
    """Raised by the alarm; not an ``OSError``, which the pool's pipe
    handling would swallow."""


@pytest.fixture
def alarm():
    """Turn a crash-respawn loop into a test failure instead of a hang."""

    def _hung(signum, frame):
        raise _RespawnLoop("pool kept respawning a task that always dies")

    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash-injection patching needs fork inheritance",
)
def test_always_dying_task_raises_after_one_resubmission(monkeypatch, alarm):
    monkeypatch.setitem(_TASK_FNS, "die-always", _always_die)
    t0 = time.monotonic()
    with WarmPool(jobs=1, start_method="fork") as pool:
        with pytest.raises(RuntimeError, match=r"task 0 \(kind 'die-always'\)"):
            pool.run("die-always", [None])
        assert pool.stats["respawns"] == 1  # resubmitted once, then fatal
    assert time.monotonic() - t0 < 10.0
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash-injection patching needs fork inheritance",
)
def test_fatal_cell_fails_the_fan_out_and_joins_workers(monkeypatch, alarm):
    monkeypatch.setenv("REPRO_START_METHOD", "fork")
    monkeypatch.setitem(_TASK_FNS, "run", _die_on_seed_2)
    with pytest.raises(RuntimeError, match=r"task 1 \(kind 'run'\)"):
        map_configs(_tiny_configs(), jobs=2)
    assert multiprocessing.active_children() == []


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
    the pool/store modules, start processes, or create dirs."""
    code = (
        "import sys\n"
        "import repro.experiments.executor\n"
        "import repro.experiments\n"
        "import multiprocessing\n"
        "lazy = [m for m in ('repro.experiments.pool',"
        " 'repro.experiments.store')"
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


def test_pool_stats_match_declared_schema():
    with WarmPool(jobs=1) as pool:
        assert list(pool.stats) == [f.key for f in POOL_STATS.fields]


def test_counter_name_rejects_undeclared_keys():
    with pytest.raises(KeyError):
        POOL_STATS.counter_name("not_a_stat")
    assert POOL_STATS.counter_name("respawns") == "pool.respawns"


def test_duplicate_fields_rejected():
    with pytest.raises(ValueError):
        StatsSchema("s", "s", [StatField("a", "x"), StatField("a", "y")])
