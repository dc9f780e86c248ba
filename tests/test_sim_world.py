"""Unit and integration tests for the simulation world."""

import numpy as np
import pytest

from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.world import World


def tiny(**overrides):
    defaults = dict(
        n_sensors=40,
        n_targets=3,
        n_rvs=1,
        side_length_m=60.0,
        sim_time_s=0.5 * DAY_S,
        battery_capacity_j=400.0,
        initial_charge_range=(0.5, 0.8),
        rv_capacity_j=20_000.0,
        dispatch_period_s=1800.0,
        tick_s=300.0,
        seed=42,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestWorldConstruction:
    def test_builds_consistent_state(self):
        w = World(tiny())
        assert w.state.sensor_pos.shape == (40, 2)
        assert w.state.bank.levels_j.shape == (40,)
        assert len(w.fleet.rvs) == 1
        assert len(w.state.cluster_set) == 3

    def test_initial_levels_in_range(self):
        w = World(tiny())
        frac = w.state.bank.levels_j / w.state.bank.capacity_j
        assert np.all(frac >= 0.5 - 1e-9)
        assert np.all(frac <= 0.8 + 1e-9)

    def test_clusters_only_over_alive_detectors(self):
        w = World(tiny())
        for c in w.state.cluster_set:
            for s in c.members:
                d = np.hypot(*(w.state.sensor_pos[s] - w.state.targets.positions[c.cluster_id]))
                assert d <= w.cfg.sensing_range_m

    def test_snapshot_keys(self):
        w = World(tiny())
        snap = w.snapshot()
        assert snap["sensor_positions"].shape == (40, 2)
        assert snap["alive"].dtype == bool
        assert snap["rv_positions"].shape == (1, 2)


class TestWorldRun:
    def test_deterministic_given_seed(self):
        s1 = World(tiny(seed=7)).run()
        s2 = World(tiny(seed=7)).run()
        assert s1.as_dict() == s2.as_dict()

    def test_seeds_differ(self):
        s1 = World(tiny(seed=1)).run()
        s2 = World(tiny(seed=2)).run()
        assert s1.as_dict() != s2.as_dict()

    def test_energy_books_balance(self):
        w = World(tiny())
        s = w.run()
        delivered_rv = sum(rv.stats.delivered_energy_j for rv in w.fleet.rvs)
        assert s.delivered_energy_j == pytest.approx(delivered_rv)
        assert s.traveling_energy_j == pytest.approx(
            s.traveling_distance_m * w.cfg.rv_moving_cost_j_per_m
        )
        assert s.objective_j == pytest.approx(s.delivered_energy_j - s.traveling_energy_j)

    def test_recharges_happen(self):
        s = World(tiny()).run()
        assert s.n_recharges > 0
        assert s.n_requests >= s.n_recharges

    def test_battery_bounds_hold_throughout(self):
        w = World(tiny())
        w.state.sim.run_until(w.cfg.sim_time_s / 2)
        assert np.all(w.state.bank.levels_j >= 0.0)
        assert np.all(w.state.bank.levels_j <= w.cfg.battery_capacity_j + 1e-9)

    def test_metrics_within_bounds(self):
        s = World(tiny()).run()
        assert 0.0 <= s.avg_coverage_ratio <= 1.0
        assert 0.0 <= s.avg_nonfunctional_fraction <= 1.0
        assert s.missing_rate == pytest.approx(1.0 - s.avg_coverage_ratio)

    def test_full_time_activation_runs(self):
        s = World(tiny(activation="full_time")).run()
        assert s.n_recharges > 0

    def test_full_time_consumes_more_sensor_energy(self):
        """Full-time activation drains clusters faster, so RVs must
        deliver more than under round-robin."""
        rr = World(tiny(sim_time_s=1 * DAY_S)).run()
        ft = World(tiny(sim_time_s=1 * DAY_S, activation="full_time")).run()
        assert ft.delivered_energy_j > rr.delivered_energy_j

    def test_all_schedulers_run(self):
        for sched in ("greedy", "insertion", "partition", "combined"):
            s = World(tiny(scheduler=sched, n_rvs=2)).run()
            assert s.n_recharges > 0, sched

    def test_nearest_target_clustering_runs(self):
        s = World(tiny(clustering="nearest_target")).run()
        assert s.n_recharges > 0

    def test_erp_gate_reduces_requests(self):
        """Higher ERP can only postpone releases, never add them."""
        lo = World(tiny(erp=0.0, sim_time_s=1 * DAY_S)).run()
        hi = World(tiny(erp=1.0, sim_time_s=1 * DAY_S)).run()
        assert hi.n_requests <= lo.n_requests + 5  # allow re-request slack

    def test_zero_targets(self):
        s = World(tiny(n_targets=0)).run()
        assert s.avg_coverage_ratio == 1.0

    def test_zero_rvs_no_recharges(self):
        s = World(tiny(n_rvs=0)).run()
        assert s.n_recharges == 0
        assert s.traveling_distance_m == 0.0

    def test_rv_returns_within_field(self):
        w = World(tiny())
        w.run()
        for rv in w.fleet.rvs:
            assert 0 <= rv.position[0] <= w.cfg.side_length_m
            assert 0 <= rv.position[1] <= w.cfg.side_length_m
