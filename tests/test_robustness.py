"""Failure-injection and degenerate-configuration tests.

The simulation must stay well-defined when the deployment is hostile:
disconnected networks, starved fleets, clusters that die wholesale,
sorties that cannot fit a single demand.  Every world runs under
strict invariant monitors, so a case that breaks energy conservation,
battery bounds, the ERC release rule or RV capacity fails on the tick
it happens.
"""

import numpy as np
import pytest

from repro.energy.recharge import ChargeModel
from repro.obs import MonitorSet
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.world import World


def run_world(**overrides):
    defaults = dict(
        n_sensors=40,
        n_targets=3,
        n_rvs=1,
        side_length_m=60.0,
        sim_time_s=0.5 * DAY_S,
        battery_capacity_j=400.0,
        initial_charge_range=(0.5, 0.8),
        dispatch_period_s=1800.0,
        seed=8,
    )
    defaults.update(overrides)
    w = World(SimulationConfig(**defaults), monitors=MonitorSet(strict=True))
    return w, w.run()


class TestDegenerateTopologies:
    def test_sparse_disconnected_network(self):
        """Short comm range leaves most sensors unroutable — the world
        must still run; disconnected sensors just don't relay."""
        w, s = run_world(comm_range_m=3.0)
        assert s.sim_time_s > 0
        assert np.isfinite(s.avg_coverage_ratio)

    def test_single_sensor(self):
        w, s = run_world(n_sensors=1, n_targets=1)
        assert 0.0 <= s.avg_coverage_ratio <= 1.0

    def test_no_sensors(self):
        w, s = run_world(n_sensors=0, n_targets=2)
        assert s.avg_nonfunctional_fraction == 0.0
        assert s.n_requests == 0

    def test_more_targets_than_sensors(self):
        w, s = run_world(n_sensors=5, n_targets=20)
        assert s.sim_time_s > 0

    def test_tiny_field(self):
        w, s = run_world(side_length_m=5.0)
        assert s.n_requests >= 0


class TestStarvedFleet:
    def test_sortie_smaller_than_single_demand(self):
        """Cr below one node's demand: nothing can ever be scheduled,
        nodes deplete, and the run still terminates cleanly."""
        w, s = run_world(rv_capacity_j=50.0, sim_time_s=1 * DAY_S)
        assert s.n_recharges == 0
        assert s.avg_nonfunctional_fraction >= 0.0

    def test_absurdly_slow_charging(self):
        w, s = run_world(charge_model=ChargeModel(power_w=1e-3), sim_time_s=0.5 * DAY_S)
        # Few (if any) charges complete; accounting must stay consistent.
        assert s.delivered_energy_j >= 0.0
        assert s.objective_j == pytest.approx(s.delivered_energy_j - s.traveling_energy_j)

    def test_lossy_wireless_transfer(self):
        w, s = run_world(charge_model=ChargeModel(power_w=2.0, efficiency=0.5))
        # The RV budget is debited twice the delivered energy.
        if s.n_recharges > 0:
            assert s.delivered_energy_j > 0

    def test_everything_dies_without_rvs(self):
        w, s = run_world(n_rvs=0, sim_time_s=4 * DAY_S)
        assert s.n_recharges == 0
        # With a 400 J battery at >= idle power, four days kill sensors.
        assert s.avg_nonfunctional_fraction > 0.0
        # Clusters of dead sensors lose their targets.
        assert s.avg_coverage_ratio < 1.0


class TestWholeClusterDeath:
    def test_cluster_death_then_revival(self):
        """High ERP + tiny batteries force whole-cluster deaths; RVs
        must revive nodes and coverage must recover."""
        w, s = run_world(
            erp=1.0,
            battery_capacity_j=150.0,
            sim_time_s=2 * DAY_S,
            target_period_s=2 * DAY_S,
            n_rvs=2,
        )
        assert s.n_recharges > 0
        # Some depletion happened but the system did not collapse.
        assert s.avg_coverage_ratio > 0.3

    def test_dead_sensors_excluded_from_new_clusters(self):
        w = World(
            SimulationConfig(
                n_sensors=30,
                n_targets=2,
                n_rvs=0,
                side_length_m=40.0,
                sim_time_s=3 * DAY_S,
                battery_capacity_j=150.0,
                initial_charge_range=(0.3, 0.5),
                seed=1,
            ),
            monitors=MonitorSet(strict=True),
        )
        w.state.sim.run_until(2.5 * DAY_S)
        w.energy.advance()
        w.state.targets.relocate()
        w.clusters.rebuild()
        dead = ~w.state.bank.alive_mask()
        for c in w.state.cluster_set:
            assert not np.any(dead[c.members])


class TestDispatchModes:
    def test_dispatch_on_idle(self):
        w, s = run_world(dispatch_on_idle=True)
        assert s.n_recharges > 0

    def test_long_dispatch_period_delays_service(self):
        _, fast = run_world(dispatch_period_s=900.0, seed=3)
        _, slow = run_world(dispatch_period_s=4 * 3600.0, seed=3)
        if fast.n_recharges and slow.n_recharges:
            assert slow.mean_request_latency_s >= fast.mean_request_latency_s * 0.8


class TestExtremeERP:
    @pytest.mark.parametrize("erp", [0.0, 0.5, 1.0])
    def test_erp_extremes_run(self, erp):
        w, s = run_world(erp=erp)
        assert s.sim_time_s > 0

    def test_full_time_high_erp(self):
        w, s = run_world(activation="full_time", erp=1.0)
        assert s.n_requests >= 0
