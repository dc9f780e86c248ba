"""White-box tests of the simulation world's internal machinery."""

import numpy as np

from repro.obs import EventLog, MonitorSet
from repro.obs.log import EventKind
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.world import World


def make_world(monitors=None, log=None, **overrides):
    defaults = dict(
        n_sensors=30,
        n_targets=2,
        n_rvs=1,
        side_length_m=50.0,
        sensing_range_m=12.0,
        sim_time_s=1 * DAY_S,
        battery_capacity_j=500.0,
        initial_charge_range=(0.6, 0.9),
        dispatch_period_s=1800.0,
        seed=11,
    )
    defaults.update(overrides)
    return World(SimulationConfig(**defaults), monitors=monitors, log=log)


def force_handoff_death(world) -> int:
    """Leave one retiring duty holder enough charge to outlive the first
    tick's drain but not its hand-off notification, so the first
    rotation empties its battery."""
    s = world.state
    alive = s.arrays.alive
    actives = s.activator.active_sensor_per_cluster(alive)
    victim = next(
        int(actives[c.cluster_id])
        for c in s.cluster_set
        if np.count_nonzero(alive[c.members]) >= 2
    )
    ea = world.energy
    s.bank.levels_j[victim] = ea.rates[victim] * world.cfg.tick_s + 0.5 * ea._notification_j
    return victim


class TestRates:
    def test_dead_sensors_draw_nothing(self):
        w = make_world()
        w.state.bank.levels_j[:5] = 0.0
        w.energy.recompute()
        assert np.all(w.energy.rates[:5] == 0.0)

    def test_alive_idle_draw_at_least_idle_power(self):
        w = make_world()
        w.energy.recompute()
        alive = w.state.bank.alive_mask()
        assert np.all(w.energy.rates[alive] >= w.state.power.idle_power_w - 1e-15)

    def test_active_draw_exceeds_idle(self):
        w = make_world()
        w.energy.recompute()
        active = w.energy.active
        idle_alive = w.state.bank.alive_mask() & ~active
        if active.any() and idle_alive.any():
            assert w.energy.rates[active].min() > w.energy.rates[idle_alive].max() * 0.99

    def test_one_active_per_nonempty_cluster_round_robin(self):
        w = make_world()
        w.energy.recompute()
        n_nonempty = sum(1 for c in w.state.cluster_set if c.size > 0)
        assert w.energy.active.sum() == n_nonempty

    def test_relay_draw_present_near_base(self):
        """The total network draw must exceed the pure idle+active sum
        whenever someone relays (multi-hop network)."""
        w = make_world(n_sensors=80, side_length_m=80.0, comm_range_m=15.0)
        w.energy.recompute()
        alive = w.state.bank.alive_mask()
        base_draw = alive.sum() * w.state.power.idle_power_w + (
            w.energy.active.sum() * w.state.power.active_sensing_power_w
        )
        assert w.energy.rates.sum() >= base_draw - 1e-12


class TestAdvanceEnergy:
    def test_no_time_no_drain(self):
        w = make_world()
        before = w.state.bank.levels_j.copy()
        w.energy.advance()
        assert np.array_equal(before, w.state.bank.levels_j)

    def test_drain_matches_rates(self):
        w = make_world()
        before = w.state.bank.levels_j.copy()
        rates = w.energy.rates.copy()
        w.state.sim.now = 1000.0
        w.energy.advance()
        expected = np.clip(before - rates * 1000.0, 0.0, w.cfg.battery_capacity_j)
        assert np.allclose(w.state.bank.levels_j, expected)

    def test_death_triggers_rate_refresh(self):
        w = make_world()
        victim = int(np.flatnonzero(w.energy.active)[0])
        w.state.bank.levels_j[victim] = w.energy.rates[victim] * 10.0  # dies in 10 s
        w.state.sim.now = 100.0
        w.energy.advance()
        assert w.state.bank.levels_j[victim] == 0.0
        assert w.energy.rates[victim] == 0.0
        # Another cluster member should have picked up the duty.
        cluster = w.state.cluster_set.cluster_of(victim)
        actives = w.state.activator.active_sensor_per_cluster(w.state.bank.alive_mask())
        if w.state.cluster_set[cluster].size > 1:
            assert actives[cluster] != victim


class TestHandoffDeath:
    def test_handoff_drain_kills_the_victim(self):
        """A duty holder emptied by its own hand-off notification is dead
        after the tick: the level is exactly zero, the alive mask drops
        it, and the strict monitors' next alive-mask check agrees."""
        monitors = MonitorSet(strict=True)
        w = make_world(monitors=monitors)
        victim = force_handoff_death(w)
        w.state.sim.run_until(w.cfg.tick_s)
        assert w.state.bank.levels_j[victim] == 0.0
        assert not w.energy.alive[victim]
        w.state.sim.run_until(3 * w.cfg.tick_s)
        assert not monitors.violations

    def test_handoff_death_is_reported(self):
        """The victim's depletion is logged and reaches the death
        callback (the adaptive ERC's feedback) exactly once, like a
        drain death."""
        log = EventLog()
        w = make_world(log=log)
        deaths = []
        w.energy.on_deaths = deaths.append
        victim = force_handoff_death(w)
        w.state.sim.run_until(3 * w.cfg.tick_s)
        assert not w.energy.alive[victim]
        depleted = log.of_kind(EventKind.SENSOR_DEPLETED)
        assert [e.subject for e in depleted] == [victim]
        assert log.snapshot()["counters"]["energy.depletions"] == 1.0
        assert deaths == [1]


class TestRequestLifecycle:
    def drain_below_threshold(self, w, nodes):
        w.state.bank.levels_j[nodes] = w.state.bank.threshold_j * 0.9

    def test_release_sets_flag_and_list(self):
        w = make_world(erp=0.0)
        self.drain_below_threshold(w, [0, 1])
        released = w.gate.check()
        assert released
        assert w.state.requested[0] and w.state.requested[1]
        assert 0 in w.state.requests and 1 in w.state.requests

    def test_no_double_release(self):
        w = make_world(erp=0.0)
        self.drain_below_threshold(w, [0])
        w.gate.check()
        n_before = len(w.state.requests)
        w.gate.check()
        assert len(w.state.requests) == n_before

    def test_charge_clears_flag(self):
        w = make_world(erp=0.0)
        self.drain_below_threshold(w, [3])
        w.gate.check()
        rv = w.fleet.rvs[0]
        rv.begin_sortie([3])
        w.state.requests.remove(3)
        rv.itinerary = [3]
        w.fleet._rv_arrive(rv)  # pops the node, starts charging
        # Fire the charge-completion event.
        w.state.sim.step()
        assert not w.state.requested[3]
        assert w.state.bank.levels_j[3] == w.cfg.battery_capacity_j


class TestDispatchPolicy:
    def test_rv_sent_home_when_broke(self):
        w = make_world(erp=0.0, rv_capacity_j=1000.0)
        rv = w.fleet.rvs[0]
        rv.battery.level_j = 1.0  # cannot afford anything
        rv.position = np.array([1.0, 1.0])  # away from depot
        self.place_request(w)
        w.fleet.dispatch()
        assert w.fleet.returning[0]

    def test_full_rv_at_depot_not_cycled(self):
        w = make_world(erp=0.0)
        self_requests = self.place_request(w, demand_scale=1e9)  # unaffordable
        w.fleet.dispatch()
        assert not w.fleet.returning[0]
        assert not w.fleet.rvs[0].busy

    @staticmethod
    def place_request(w, demand_scale=1.0):
        from repro.core.requests import RechargeRequest

        w.state.requests.add(
            RechargeRequest(0, w.state.sensor_pos[0], min(400.0 * demand_scale, 1e12), -1, 0.0)
        )
        w.state.requested[0] = True


class TestCoverableNormalization:
    def test_uncoverable_targets_ignored(self):
        """Targets nobody could ever see don't count against coverage."""
        w = make_world(n_sensors=4, n_targets=3, side_length_m=200.0, sensing_range_m=5.0,
                       seed=2)
        # Most targets on a 200 m field with 4 short-range sensors are
        # uncoverable; coverage is normalized over the coverable ones.
        w._record_metrics()
        coverage = w.state.metrics._last_coverage
        assert coverage in (0.0, 0.5, 1.0) or 0 <= coverage <= 1
