"""Unit tests for the extracted simulation components.

Each component is exercised through its own seam — built over a shared
:class:`SimulationState` with only the collaborators it declares —
rather than through a fully wired :class:`World`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import Cluster, ClusterSet
from repro.core.erc import AdaptiveEnergyRequestController
from repro.registry import ACTIVATORS
from repro.sim.components import (
    ClusterManager,
    EnergyAccounting,
    FleetController,
    RequestGate,
    SimulationState,
)
from repro.sim.config import SimulationConfig
from repro.sim.soa import erc_gate_constants, erc_release, pack_clusters


def cfg(**overrides):
    defaults = dict(
        n_sensors=30,
        n_targets=2,
        n_rvs=1,
        side_length_m=50.0,
        sensing_range_m=12.0,
        sim_time_s=24 * 3600.0,
        battery_capacity_j=500.0,
        initial_charge_range=(0.6, 0.9),
        dispatch_period_s=1800.0,
        tick_s=300.0,
        seed=11,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def make_state(**overrides):
    return SimulationState.from_config(cfg(**overrides))


def make_clustered_state(**overrides):
    state = make_state(**overrides)
    ClusterManager(state)
    return state


class TestSimulationState:
    def test_from_config_shapes(self):
        s = make_state()
        assert s.sensor_pos.shape == (30, 2)
        assert s.bank.levels_j.shape == (30,)
        assert s.requested.shape == (30,)
        assert not s.requested.any()
        assert s.cluster_set is None  # ClusterManager's job

    def test_same_seed_same_deployment(self):
        a, b = make_state(), make_state()
        assert np.array_equal(a.sensor_pos, b.sensor_pos)
        assert np.array_equal(a.bank.levels_j, b.bank.levels_j)
        assert np.array_equal(a.targets.positions, b.targets.positions)

    def test_different_seed_different_deployment(self):
        a, b = make_state(), make_state(seed=12)
        assert not np.array_equal(a.sensor_pos, b.sensor_pos)


class TestClusterManager:
    def test_rebuild_publishes_state(self):
        s = make_state()
        ClusterManager(s)
        assert s.cluster_set is not None
        assert len(s.cluster_set) == 2
        assert s.activator is not None
        assert s.coverable.shape == (2,)

    def test_members_within_sensing_range(self):
        s = make_clustered_state()
        for c in s.cluster_set:
            for member in c.members:
                d = np.hypot(*(s.sensor_pos[member] - s.targets.positions[c.cluster_id]))
                assert d <= s.cfg.sensing_range_m

    def test_relocate_rebuilds(self):
        s = make_state()
        mgr = ClusterManager(s)
        before = s.cluster_set
        epoch = s.targets.epoch
        mgr.relocate()
        assert s.targets.epoch == epoch + 1
        assert s.cluster_set is not before

    def test_rotate_moves_duty(self):
        s = make_state()
        mgr = ClusterManager(s)
        alive = s.bank.alive_mask()
        before = s.activator.active_sensor_per_cluster(alive).copy()
        handoffs = mgr.rotate()
        after = s.activator.active_sensor_per_cluster(alive)
        assert handoffs.shape[1] == 2
        # Duty moved exactly where a hand-off was reported.
        moved = {int(c) for c in np.flatnonzero(before != after)}
        reported = {int(s.cluster_set.cluster_of(int(old))) for old, _ in handoffs}
        assert moved == reported

    def test_full_time_does_not_rotate(self):
        s = make_clustered_state(activation="full_time")
        assert s.activator.rotates is False
        assert len(ClusterManager(s).rotate()) == 0

    def test_dead_sensors_excluded_from_clusters(self):
        s = make_state()
        s.bank.levels_j[:] = 0.0
        ClusterManager(s)
        assert all(c.size == 0 for c in s.cluster_set)


class TestEnergyAccounting:
    def build(self, s, **kw):
        return EnergyAccounting(s, **kw)

    def test_dead_sensors_draw_nothing(self):
        s = make_clustered_state()
        s.bank.levels_j[:5] = 0.0
        energy = self.build(s)
        assert np.all(energy.rates[:5] == 0.0)

    def test_alive_draw_at_least_idle(self):
        s = make_clustered_state()
        energy = self.build(s)
        alive = s.bank.alive_mask()
        assert np.all(energy.rates[alive] >= s.power.idle_power_w - 1e-15)

    def test_advance_drains_and_books(self):
        s = make_clustered_state()
        energy = self.build(s)
        before = s.bank.levels_j.copy()
        rates = energy.rates.copy()
        s.sim.now = 1000.0
        energy.advance()
        expected = np.clip(before - rates * 1000.0, 0.0, s.cfg.battery_capacity_j)
        assert np.allclose(s.bank.levels_j, expected)
        breakdown = energy.breakdown()
        assert breakdown["idle"] > 0.0
        assert breakdown["sensing"] > 0.0

    def test_death_triggers_refresh_and_callback(self):
        s = make_clustered_state()
        deaths = []
        energy = self.build(s, on_deaths=deaths.append)
        victim = int(np.flatnonzero(energy.active)[0])
        s.bank.levels_j[victim] = energy.rates[victim] * 10.0  # dies in 10 s
        s.sim.now = 100.0
        energy.advance()
        assert s.bank.levels_j[victim] == 0.0
        assert energy.rates[victim] == 0.0
        assert deaths == [1]

    def test_apply_handoffs_charges_notifications(self):
        s = make_clustered_state()
        energy = self.build(s)
        handoffs = np.array([[0, 1]], dtype=np.int64)
        before = s.bank.levels_j[[0, 1]].copy()
        energy.apply_handoffs(handoffs)
        assert np.all(s.bank.levels_j[[0, 1]] < before)
        assert energy.breakdown()["notifications"] > 0.0

    def test_empty_handoffs_noop(self):
        s = make_clustered_state()
        energy = self.build(s)
        before = s.bank.levels_j.copy()
        energy.apply_handoffs(np.empty((0, 2), dtype=np.int64))
        assert np.array_equal(before, s.bank.levels_j)


def count_calls(monkeypatch, obj, name):
    """Wrap ``obj.name`` (an instance method) with a call counter."""
    calls = []
    real = getattr(obj, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(obj, name, spy)
    return calls


class TestRepricingMemo:
    """``EnergyAccounting`` re-prices only when the masks it prices
    from changed (or leakage makes the rates level-dependent)."""

    def test_recharging_an_alive_node_keeps_rates_without_pricing(self, monkeypatch):
        s = make_clustered_state(erp=0.0)
        gate, energy, fleet = wire_fleet(s)
        node = int(np.flatnonzero(energy.active)[0])
        s.bank.levels_j[node] = s.bank.threshold_j * 0.9  # alive, needy
        gate.check()
        fleet.dispatch()
        rates = energy.rates.copy()
        recomputes = count_calls(monkeypatch, energy, "recompute")
        prices = count_calls(monkeypatch, energy, "price")
        while s.sim.step():
            pass
        assert s.bank.levels_j[node] == s.cfg.battery_capacity_j
        assert recomputes  # the finish-charge recompute still runs ...
        assert prices == []  # ... but finds the masks it priced from
        assert energy.rates.tobytes() == rates.tobytes()

    def test_reviving_a_depleted_node_reprices(self, monkeypatch):
        s = make_clustered_state()
        energy = EnergyAccounting(s)
        rates = energy.rates.copy()
        victim = int(np.flatnonzero(energy.active)[0])
        s.bank.levels_j[victim] = 0.0
        energy.recompute()
        assert energy.rates[victim] == 0.0
        prices = count_calls(monkeypatch, energy, "price")
        s.bank.charge_to_full([victim])
        energy.recompute()
        assert len(prices) == 1
        # Back on the masks of the first pass: the same rates, bit for bit.
        assert energy.rates.tobytes() == rates.tobytes()

    def test_leakage_always_reprices(self, monkeypatch):
        s = make_clustered_state(self_discharge_fraction_per_day=0.05)
        energy = EnergyAccounting(s)
        prices = count_calls(monkeypatch, energy, "price")
        energy.recompute()
        node = int(np.flatnonzero(s.bank.levels_j > 0)[0])
        before = energy.rates[node]
        s.bank.levels_j[node] *= 0.5  # still alive: the masks are unchanged
        energy.recompute()
        assert len(prices) == 2
        assert energy.rates[node] < before  # leakage follows the level


class TestRequestGate:
    def test_release_below_threshold(self):
        s = make_clustered_state(erp=0.0)
        gate = RequestGate(s)
        s.bank.levels_j[[0, 1]] = s.bank.threshold_j * 0.9
        assert gate.check()
        assert s.requested[0] and s.requested[1]
        assert 0 in s.requests and 1 in s.requests

    def test_no_double_release(self):
        s = make_clustered_state(erp=0.0)
        gate = RequestGate(s)
        s.bank.levels_j[0] = s.bank.threshold_j * 0.9
        gate.check()
        n = len(s.requests)
        gate.check()
        assert len(s.requests) == n

    def test_mark_recharged_clears(self):
        s = make_clustered_state(erp=0.0)
        gate = RequestGate(s)
        s.bank.levels_j[3] = s.bank.threshold_j * 0.9
        gate.check()
        gate.mark_recharged(3)
        assert not s.requested[3]
        assert 3 not in s.requests

    def test_adaptive_policy_built_from_config(self):
        s = make_clustered_state(adaptive_erp=True, erp=0.3)
        gate = RequestGate(s)
        assert isinstance(gate.erc, AdaptiveEnergyRequestController)
        assert gate.erc.erp == pytest.approx(0.3)

    def test_note_deaths_feeds_adaptive_policy(self):
        s = make_clustered_state(adaptive_erp=True, erp=0.4)
        gate = RequestGate(s)
        gate.note_deaths(2)
        s.sim.now = gate.erc.adjust_period_s + 1.0
        gate.maybe_adjust()
        assert gate.erc.erp < 0.4  # AIMD backoff after deaths

    def test_note_deaths_noop_for_static_policy(self):
        s = make_clustered_state()
        gate = RequestGate(s)
        gate.note_deaths(5)  # must not raise
        gate.maybe_adjust()


def repartition(s, groups):
    """Re-form the clusters the way ClusterManager.rebuild does, with
    explicit member lists."""
    s.cluster_set = ClusterSet(
        [Cluster(c, np.asarray(g, dtype=np.int64)) for c, g in enumerate(groups)],
        s.cfg.n_sensors,
    )
    pack_clusters(s.cluster_set, s.arrays)
    s.activator = ACTIVATORS.build(
        s.cfg.activation, cluster_set=s.cluster_set, arrays=s.arrays
    )


def same_shape_groups(s, rng):
    """Member lists for a new cluster epoch with the current one's
    shape: the same sizes, filled with a random choice of sensors."""
    perm = rng.permutation(s.cfg.n_sensors).tolist()
    bounds = np.cumsum([0] + s.arrays.sizes.tolist()).tolist()
    return [sorted(perm[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


class TestGateScanSkip:
    """The gate skips its scan while (below, requested, erp, cluster
    epoch) equal their values right after the last scan's release."""

    @pytest.mark.parametrize("between", [0, 1])
    def test_same_shape_epoch_with_open_gate_rescans(self, between):
        s = make_state(n_targets=2, erp=0.5)
        repartition(s, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])
        gate = RequestGate(s)
        s.bank.levels_j[[0, 1, 5]] = s.bank.threshold_j * 0.9
        assert not gate.check()  # 2 and 1 needy of 5: both gates closed
        assert not gate.check()  # same inputs: skipped, still nothing
        members = s.arrays.members.copy()
        below, requested = s.bank.levels_j < s.bank.threshold_j, s.requested.copy()
        for _ in range(between):
            # An unchecked epoch in between frees the first epoch's
            # arrays, so the next epoch may reuse their ids.
            repartition(s, [[10, 11, 12, 13, 14], [15, 16, 17, 18, 19]])
        # Same shape, same masks, but cluster 0 now holds 3 needy of 5.
        repartition(s, [[0, 1, 5, 6, 7], [2, 3, 4, 8, 9]])
        assert s.arrays.members.shape == members.shape
        assert np.array_equal(s.bank.levels_j < s.bank.threshold_j, below)
        assert np.array_equal(s.requested, requested)
        assert gate.check()
        assert sorted(s.requests.node_ids) == [0, 1, 5]

    def test_skip_releases_nothing_and_rescans_on_change(self):
        s = make_clustered_state(erp=0.0)
        gate = RequestGate(s)
        s.bank.levels_j[0] = s.bank.threshold_j * 0.9
        assert gate.check()
        assert not gate.check()
        s.bank.levels_j[1] = s.bank.threshold_j * 0.9
        assert gate.check()
        assert s.requested[1]

    @settings(max_examples=80, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["drain", "recharge", "relocate", "shuffle", "erp", "none"]),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_releases_equal_a_fresh_scan_at_every_step(self, steps):
        s = make_state(n_targets=3, erp=0.5)
        mgr = ClusterManager(s)
        gate = RequestGate(s)
        for op, seed in steps:
            rng = np.random.default_rng(seed)
            if op == "drain":
                idx = rng.choice(s.cfg.n_sensors, size=int(rng.integers(1, 6)))
                s.bank.levels_j[idx] = s.bank.threshold_j * rng.uniform(0.0, 0.99)
            elif op == "recharge" and s.requested.any():
                node = int(rng.choice(np.flatnonzero(s.requested)))
                s.bank.levels_j[node] = s.cfg.battery_capacity_j
                gate.mark_recharged(node)
            elif op == "relocate":
                mgr.relocate()
            elif op == "shuffle":
                # Sometimes two epochs between checks: the second may
                # reuse the ids of the arrays the first one freed.
                epochs = [same_shape_groups(s, rng) for _ in range(rng.integers(1, 3))]
                for groups in epochs:
                    repartition(s, groups)
            elif op == "erp":
                gate.erc.erp = float(rng.choice([0.0, 0.2, 0.5, 0.8, 1.0]))
            a = s.arrays
            want = erc_release(
                erc_gate_constants(a.cluster_id, a.sizes, gate.erc.erp),
                s.bank.levels_j < s.bank.threshold_j,
                s.requested.copy(),
                a.release_scratch,
            )
            before = s.requested.copy()
            gate.check()
            assert np.flatnonzero(s.requested & ~before).tolist() == want


def wire_fleet(s, **cfg_kw):
    from repro.registry import SCHEDULERS

    gate = RequestGate(s)
    energy = EnergyAccounting(s, on_deaths=gate.note_deaths)
    scheduler = SCHEDULERS.build(s.cfg.scheduler, fleet_size=s.cfg.n_rvs)
    fleet = FleetController(s, energy, gate, scheduler)
    return gate, energy, fleet


class TestFleetController:
    def test_builds_fleet(self):
        s = make_clustered_state(n_rvs=2)
        _, _, fleet = wire_fleet(s)
        assert len(fleet.rvs) == 2
        assert len(fleet.idle_views()) == 2

    def test_dispatch_assigns_sortie(self):
        s = make_clustered_state(erp=0.0)
        gate, _, fleet = wire_fleet(s)
        s.bank.levels_j[[0, 1]] = s.bank.threshold_j * 0.9
        gate.check()
        fleet.dispatch()
        assert fleet.rvs[0].busy
        assert len(fleet.idle_views()) == 0

    def test_dispatch_without_requests_noop(self):
        s = make_clustered_state()
        _, _, fleet = wire_fleet(s)
        fleet.dispatch()
        assert not fleet.rvs[0].busy

    def test_broke_rv_sent_home(self):
        s = make_clustered_state(erp=0.0, rv_capacity_j=1000.0)
        gate, _, fleet = wire_fleet(s)
        rv = fleet.rvs[0]
        rv.battery.level_j = 1.0  # cannot afford anything
        rv.position = np.array([1.0, 1.0])  # away from depot
        s.bank.levels_j[0] = s.bank.threshold_j * 0.9
        gate.check()
        fleet.dispatch()
        assert fleet.returning[0]

    def test_sortie_executes_through_engine(self):
        s = make_clustered_state(erp=0.0)
        gate, _, fleet = wire_fleet(s)
        s.bank.levels_j[4] = s.bank.threshold_j * 0.9
        gate.check()
        fleet.dispatch()
        while s.sim.step():
            pass
        assert s.bank.levels_j[4] == s.cfg.battery_capacity_j
        assert not s.requested[4]
        assert fleet.totals()["delivered_energy_j"] > 0.0
        assert fleet.totals()["sorties"] == 1

    def test_on_change_fires_after_recharge(self):
        s = make_clustered_state(erp=0.0)
        from repro.registry import SCHEDULERS

        gate = RequestGate(s)
        energy = EnergyAccounting(s)
        changes = []
        fleet = FleetController(
            s, energy, gate, SCHEDULERS.build("greedy", fleet_size=1),
            on_change=lambda: changes.append(s.now),
        )
        s.bank.levels_j[4] = s.bank.threshold_j * 0.9
        gate.check()
        fleet.dispatch()
        while s.sim.step():
            pass
        assert changes
