"""Tests for the parallel seed runner (a front of the cell executor)
and the profiling helpers."""

import time

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.runner import run_seeds
from repro.utils.profiling import Timer, profile_call


def quick_cfg():
    return SimulationConfig.small(sim_time_s=0.2 * 86400)


class TestParallelRunner:
    def test_parallel_matches_serial(self):
        cfg = quick_cfg()
        serial = run_seeds(cfg, [1, 2, 3], jobs=1)
        parallel = run_seeds(cfg, [1, 2, 3], jobs=3)
        assert [s.as_dict() for s in serial] == [p.as_dict() for p in parallel]

    def test_single_seed_stays_serial(self):
        cfg = quick_cfg()
        out = run_seeds(cfg, [7], jobs=8)
        assert len(out) == 1

    def test_invalid_processes(self):
        with pytest.raises(ValueError):
            run_seeds(quick_cfg(), [1, 2], jobs=0)


class TestTimer:
    def test_measures_elapsed(self):
        with Timer("nap") as t:
            time.sleep(0.02)
        assert t.elapsed_s >= 0.02
        assert "nap" in str(t)

    def test_running_repr(self):
        t = Timer("x")
        assert "running" in str(t)


class TestProfileCall:
    def test_returns_result_and_rows(self):
        def work(n):
            return sum(i * i for i in range(n))

        result, rows = profile_call(work, 10_000, top=5)
        assert result == sum(i * i for i in range(10_000))
        assert 1 <= len(rows) <= 5
        loc, ncalls, tottime, cumtime = rows[0]
        assert isinstance(loc, str) and ncalls >= 1
        assert cumtime >= tottime >= 0.0

    def test_rows_sorted_by_cumtime(self):
        _, rows = profile_call(lambda: [sorted(range(1000)) for _ in range(50)], top=10)
        cumtimes = [r[3] for r in rows]
        assert cumtimes == sorted(cumtimes, reverse=True)

    def test_exception_propagates(self):
        with pytest.raises(RuntimeError):
            profile_call(lambda: (_ for _ in ()).throw(RuntimeError("boom")).__next__())

    def test_validation(self):
        with pytest.raises(ValueError):
            profile_call(lambda: None, top=0)

    def test_profile_a_simulation(self):
        from repro.sim.runner import run_simulation

        summary, rows = profile_call(run_simulation, quick_cfg(), top=10)
        assert summary.sim_time_s > 0
        assert rows
