"""Tests for repro.obs.monitors: the runtime invariant tripwires.

Each check is exercised on synthetic inputs (one firing case, one clean
case), strict mode is verified to raise, and — the acceptance bar — a
fixed-seed run under strict monitors completes with zero violations for
every registered scheduler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    EventLog,
    InvariantViolation,
    MonitorSet,
    NULL_MONITORS,
)
from repro.registry import SCHEDULERS
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.world import World

from oracles import erc_release_mismatches, nodes_to_release


class FakePlan:
    def __init__(self, node_ids, travel_m=10.0, demand_j=50.0):
        self.node_ids = tuple(node_ids)
        self.travel_m = travel_m
        self.demand_j = demand_j


class FakeView:
    def __init__(self, budget_j=1000.0, em_j_per_m=5.6, charge_efficiency=1.0):
        self.rv_id = 0
        self.budget_j = budget_j
        self.em_j_per_m = em_j_per_m
        self.charge_efficiency = charge_efficiency


def monitors(**kwargs):
    return MonitorSet(log=EventLog(), **kwargs)


class TestBatteryBounds:
    def test_clean(self):
        m = monitors()
        m.check_battery_bounds(np.array([0.0, 50.0, 100.0]), 100.0, t=1.0)
        assert m.violations == []

    def test_fires_below_and_above(self):
        m = monitors()
        m.check_battery_bounds(np.array([-1.0, 50.0, 101.0]), 100.0, t=2.0)
        assert len(m.violations) == 1
        v = m.violations[0]
        assert v["invariant"] == "battery_bounds"
        assert v["sensors"] == [0, 2]
        assert m.log.snapshot()["counters"]["monitors.violations"] == 1

    def test_strict_raises(self):
        m = monitors(strict=True)
        with pytest.raises(InvariantViolation, match="battery_bounds"):
            m.check_battery_bounds(np.array([-1.0]), 100.0, t=0.0)


class TestAliveMask:
    def test_clean(self):
        m = monitors()
        m.check_alive_mask(np.array([False, True]), np.array([0.0, 3.0]), t=1.0)
        assert m.violations == []

    def test_fires_on_stale_mask(self):
        m = monitors()
        m.check_alive_mask(
            np.array([True, True, False]), np.array([0.0, 3.0, 2.0]), t=1.0
        )
        assert len(m.violations) == 1
        assert m.violations[0]["invariant"] == "alive_mask"
        assert m.violations[0]["sensors"] == [0, 2]

    def test_level_write_without_recompute_trips_strict_run(self):
        """The energy component's alive mask is re-derived only where
        levels change through it; a bare write is caught at the next
        advance."""
        world = World(
            SimulationConfig.small(sim_time_s=DAY_S, seed=3),
            monitors=MonitorSet(strict=True),
        )
        world.state.bank.levels_j[0] = 0.0
        with pytest.raises(InvariantViolation, match="alive_mask"):
            world.run()


class TestEnergyConservation:
    def test_clean_exact_drain(self):
        m = monitors()
        before = np.array([100.0, 80.0])
        rates = np.array([0.5, 0.25])
        after = before - rates * 10.0
        m.check_energy_conservation(before, after, rates, dt=10.0, t=10.0)
        assert m.violations == []

    def test_clamped_at_zero_allowed(self):
        m = monitors()
        before = np.array([2.0])
        rates = np.array([1.0])  # analytic drop 10 J; only 2 J were left
        m.check_energy_conservation(before, np.array([0.0]), rates, dt=10.0, t=10.0)
        assert m.violations == []

    def test_fires_on_divergence(self):
        m = monitors()
        before = np.array([100.0])
        rates = np.array([0.5])
        m.check_energy_conservation(before, np.array([90.0]), rates, dt=10.0, t=10.0)
        assert [v["invariant"] for v in m.violations] == ["energy_conservation"]

    def test_fires_on_clamped_gain(self):
        # A clamped sensor may drop less than rate*dt, never gain.
        m = monitors()
        m.check_energy_conservation(
            np.array([-1.0]), np.array([0.0]), np.array([1.0]), dt=1.0, t=1.0
        )
        assert len(m.violations) == 1


class TestErcRelease:
    """Re-derives max(ceil(nc*K), 1) against the gate's actual output."""

    # Cluster 0: sensors 0-3; cluster 1: sensors 4-6; sensor 7 free.
    MEMBERSHIP = np.array([0, 0, 0, 0, 1, 1, 1, -1])
    SIZES = np.array([4, 3])

    def check(self, below, released, listed=None):
        m = monitors()
        listed = np.zeros(8, dtype=bool) if listed is None else np.asarray(listed, dtype=bool)
        m.check_erc_release_arrays(
            self.MEMBERSHIP, self.SIZES, np.asarray(below, dtype=bool), listed,
            released, erp=0.5, t=0.0,
        )
        return m.violations

    def test_clean_gate_open(self):
        # erp=0.5 -> cluster 0 needs ceil(4*0.5)=2 needy; has 2 -> release
        # both; cluster 1 has none; sensor 7 is unclustered and needy.
        assert self.check([1, 1, 0, 0, 0, 0, 0, 1], [0, 1, 7]) == []

    def test_clean_gate_closed(self):
        assert self.check([1, 0, 0, 0, 0, 0, 0, 0], []) == []

    def test_fires_on_premature_release(self):
        violations = self.check([1, 0, 0, 0, 0, 0, 0, 0], [0])
        assert [v["invariant"] for v in violations] == ["erc_release"]
        assert violations[0]["cluster_id"] == 0
        assert "cluster 0 gate closed (1/4 needy, threshold 2" in violations[0]["message"]

    def test_fires_on_partial_release(self):
        violations = self.check([1, 1, 0, 0, 0, 0, 0, 0], [0])
        assert len(violations) == 1
        assert "cluster 0 gate open (2/4 needy" in violations[0]["message"]
        assert "released [0] instead of [0, 1]" in violations[0]["message"]

    def test_listed_members_not_re_released(self):
        assert self.check([1, 1, 0, 0, 0, 0, 0, 0], [1], listed=[1, 0, 0, 0, 0, 0, 0, 0]) == []

    def test_fires_on_missed_unclustered(self):
        violations = self.check([0, 0, 0, 0, 0, 0, 0, 1], [])
        assert [v["invariant"] for v in violations] == ["erc_release"]
        assert "unclustered release mismatch: [] instead of [7]" in violations[0]["message"]


@st.composite
def _erc_cases(draw):
    """A random cluster epoch with random needy/listed masks and a
    release set that is either the gate's own answer or a perturbation
    of it."""
    from repro.core.clustering import Cluster, ClusterSet

    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 5))
    membership = np.array(draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n)))
    below = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    listed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    erp = draw(st.sampled_from([0.0, 0.2, 0.5, 0.75, 1.0]))
    cluster_set = ClusterSet(
        [Cluster(cid, np.flatnonzero(membership == cid)) for cid in range(m)], n
    )
    released = nodes_to_release(erp, cluster_set, below, listed)
    flips = draw(st.lists(st.integers(0, n - 1), max_size=3))
    released = sorted(set(released) ^ set(flips))
    sizes = np.bincount(membership[membership >= 0], minlength=m)
    return membership, sizes, cluster_set, below, listed, released, erp


@settings(max_examples=300, deadline=None)
@given(_erc_cases())
def test_erc_array_check_agrees_with_the_per_cluster_oracle(case):
    membership, sizes, cluster_set, below, listed, released, erp = case
    m = monitors()
    m.check_erc_release_arrays(membership, sizes, below, listed, released, erp, t=0.0)
    oracle = erc_release_mismatches(cluster_set, below, listed, released, erp)
    assert bool(m.violations) == bool(oracle), (m.violations, oracle)


class TestPlanCapacity:
    def test_clean(self):
        m = monitors()
        m.check_plan_capacity(FakePlan([1], travel_m=10.0, demand_j=50.0),
                              FakeView(budget_j=1000.0), t=0.0)
        assert m.violations == []

    def test_fires_over_budget(self):
        m = monitors()
        m.check_plan_capacity(FakePlan([1], travel_m=200.0, demand_j=50.0),
                              FakeView(budget_j=1000.0), t=0.0)
        assert [v["invariant"] for v in m.violations] == ["rv_capacity"]

    def test_efficiency_inflates_cost(self):
        m = monitors()
        view = FakeView(budget_j=110.0, em_j_per_m=1.0, charge_efficiency=0.5)
        # travel 10 + 50/0.5 = 110 J: exactly at budget, clean.
        m.check_plan_capacity(FakePlan([1], 10.0, 50.0), view, t=0.0)
        assert m.violations == []
        m.check_plan_capacity(FakePlan([1], 11.0, 50.0), view, t=0.0)
        assert len(m.violations) == 1


class TestAtomicService:
    NODE_CLUSTER = {1: 0, 2: 0, 3: 1, 4: -1}
    BACKLOG = {0: 2, 1: 1}

    def test_clean_whole_clusters(self):
        m = monitors()
        m.check_atomic_service(FakePlan([1, 2, 3, 4]), self.NODE_CLUSTER,
                               self.BACKLOG, t=0.0)
        assert m.violations == []

    def test_fires_on_split_cluster(self):
        m = monitors()
        m.check_atomic_service(FakePlan([1, 3]), self.NODE_CLUSTER,
                               self.BACKLOG, t=0.0, rv_id=2)
        assert [v["invariant"] for v in m.violations] == ["atomic_cluster_service"]
        assert m.violations[0]["cluster_id"] == 0

    def test_unclustered_nodes_ignored(self):
        m = monitors()
        m.check_atomic_service(FakePlan([4]), self.NODE_CLUSTER,
                               self.BACKLOG, t=0.0)
        assert m.violations == []


class TestPlumbing:
    def test_summary_groups_by_invariant(self):
        m = monitors()
        m.check_battery_bounds(np.array([-1.0]), 10.0, t=0.0)
        m.check_battery_bounds(np.array([-2.0]), 10.0, t=1.0)
        m.check_plan_capacity(FakePlan([1], 1e6, 0.0), FakeView(), t=2.0)
        s = m.summary()
        assert s["total"] == 3
        assert s["by_invariant"] == {"battery_bounds": 2, "rv_capacity": 1}

    def test_violations_emit_span_events(self):
        log = EventLog()
        m = MonitorSet(log=log, strict=False)
        with log.phase("tick"):
            m.check_battery_bounds(np.array([-1.0]), 10.0, t=3.0)
        m.check_battery_bounds(np.array([-1.0]), 10.0, t=4.0)  # no open phase
        (ev,) = log.span_rows()[0]["events"]
        assert ev["name"] == "invariant.violation"
        assert ev["invariant"] == "battery_bounds"
        assert ev["t_sim"] == 3.0
        # Both violations count, inside a phase or not.
        counters = log.snapshot()["counters"]
        assert counters["monitors.violations"] == 2.0
        assert counters["monitors.battery_bounds.violations"] == 2.0

    def test_clean_run_counter_is_explicit_zero(self):
        log = EventLog()
        MonitorSet(log=log, strict=False)
        assert log.snapshot()["counters"]["monitors.violations"] == 0.0

    def test_null_monitors_are_noops(self):
        NULL_MONITORS.check_battery_bounds(np.array([-5.0]), 1.0, t=0.0)
        NULL_MONITORS.check_plan_capacity(FakePlan([1], 1e9, 1e9), FakeView(), 0.0)
        assert not NULL_MONITORS.enabled
        assert list(NULL_MONITORS.violations) == []
        assert NULL_MONITORS.summary() == {"total": 0, "by_invariant": {}}


TINY = dict(
    n_sensors=40,
    n_targets=3,
    n_rvs=2,
    side_length_m=60.0,
    sim_time_s=0.2 * DAY_S,
    battery_capacity_j=400.0,
    initial_charge_range=(0.4, 0.7),
    dispatch_period_s=1800.0,
    erp=0.4,
    seed=7,
)


class TestStrictRunAllSchedulers:
    """Acceptance: a strict-monitor run is clean for every scheduler."""

    @pytest.mark.parametrize("name", sorted(SCHEDULERS.names()))
    def test_zero_violations(self, name):
        cfg = SimulationConfig(**dict(TINY, scheduler=name))
        log = EventLog()
        mon = MonitorSet(log=log, strict=True)
        world = World(cfg, log=log, monitors=mon)
        world.run()  # InvariantViolation would propagate
        assert mon.violations == []
        assert log.snapshot(cfg.n_rvs)["counters"]["monitors.violations"] == 0.0

    def test_monitored_run_matches_plain_run(self):
        cfg = SimulationConfig(**TINY)
        plain = World(cfg).run()
        mon = MonitorSet(strict=True)
        monitored = World(cfg, monitors=mon).run()
        assert monitored.as_dict() == plain.as_dict()
