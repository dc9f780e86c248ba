"""Tests for the adaptive-ERP controller and the RV depot dwell."""

import numpy as np
import pytest

from repro.core.clustering import Cluster, ClusterSet
from repro.core.erc import AdaptiveEnergyRequestController
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.soa import StateArrays, erc_gate_constants, erc_release, pack_clusters
from repro.sim.world import World


class TestAdaptiveController:
    def make(self, **kw):
        args = dict(initial_erp=0.4, adjust_period_s=100.0, step_up=0.1, backoff=0.5)
        args.update(kw)
        return AdaptiveEnergyRequestController(**args)

    def test_quiet_periods_raise_erp(self):
        ctl = self.make()
        assert ctl.maybe_adjust(100.0)
        assert ctl.erp == pytest.approx(0.5)
        assert ctl.maybe_adjust(200.0)
        assert ctl.erp == pytest.approx(0.6)

    def test_deaths_back_off(self):
        ctl = self.make()
        ctl.observe_deaths(3)
        ctl.maybe_adjust(100.0)
        assert ctl.erp == pytest.approx(0.2)

    def test_counter_resets_after_adjust(self):
        ctl = self.make()
        ctl.observe_deaths(1)
        ctl.maybe_adjust(100.0)
        assert ctl.maybe_adjust(200.0)  # quiet now -> up again
        assert ctl.erp == pytest.approx(0.3)

    def test_no_adjust_before_period(self):
        ctl = self.make()
        assert not ctl.maybe_adjust(50.0)
        assert ctl.erp == pytest.approx(0.4)

    def test_clamping(self):
        ctl = self.make(initial_erp=0.95, step_up=0.2)
        ctl.maybe_adjust(100.0)
        assert ctl.erp == 1.0
        ctl2 = self.make(initial_erp=0.01, backoff=0.1)
        ctl2.observe_deaths(1)
        ctl2.maybe_adjust(100.0)
        assert ctl2.erp >= 0.0

    def test_history_recorded(self):
        ctl = self.make()
        ctl.maybe_adjust(100.0)
        ctl.observe_deaths(1)
        ctl.maybe_adjust(200.0)
        times = [t for t, _ in ctl.history]
        assert times == [0.0, 100.0, 200.0]

    def test_gate_still_works(self):
        ctl = self.make(initial_erp=1.0)
        cs = ClusterSet([Cluster(0, [0, 1])], n_sensors=2)
        arrays = StateArrays(2, 0)
        pack_clusters(cs, arrays)
        constants = erc_gate_constants(cs.membership, arrays.sizes, ctl.erp)
        below = np.array([True, False])
        listed = np.zeros(2, bool)
        assert erc_release(constants, below, listed, arrays.release_scratch) == []
        below[1] = True
        assert erc_release(constants, below, listed, arrays.release_scratch) == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveEnergyRequestController(adjust_period_s=0.0)
        with pytest.raises(ValueError):
            AdaptiveEnergyRequestController(backoff=0.0)
        with pytest.raises(ValueError):
            AdaptiveEnergyRequestController(erp_min=0.5, erp_max=0.2)
        with pytest.raises(ValueError):
            self.make().observe_deaths(-1)


class TestAdaptiveInWorld:
    def test_adaptive_run(self):
        cfg = SimulationConfig.small(adaptive_erp=True, erp=0.2, sim_time_s=2 * DAY_S, seed=3)
        w = World(cfg)
        s = w.run()
        assert s.n_recharges > 0
        # With no deaths in the small healthy scenario, K climbed.
        assert w.gate.erc.erp > 0.2

    def test_adaptive_flag_changes_outcome_only_via_erp(self):
        base = SimulationConfig.small(erp=0.2, sim_time_s=1 * DAY_S, seed=3)
        s_static = World(base).run()
        s_adaptive = World(base.with_overrides(adaptive_erp=True)).run()
        # Both must be valid runs; they may legitimately differ.
        for s in (s_static, s_adaptive):
            assert 0 <= s.avg_coverage_ratio <= 1


class TestDepotDwell:
    def test_dwell_validated(self):
        with pytest.raises(ValueError):
            SimulationConfig(rv_depot_dwell_s=-1.0)

    def test_dwell_slows_service(self):
        base = dict(
            n_sensors=40,
            n_targets=3,
            n_rvs=1,
            side_length_m=60.0,
            sim_time_s=1.5 * DAY_S,
            battery_capacity_j=400.0,
            initial_charge_range=(0.5, 0.8),
            dispatch_period_s=1800.0,
            rv_capacity_j=3000.0,  # force frequent depot returns
            seed=4,
        )
        fast = World(SimulationConfig(**base)).run()
        slow = World(SimulationConfig(rv_depot_dwell_s=2 * 3600.0, **base)).run()
        assert slow.n_recharges <= fast.n_recharges
