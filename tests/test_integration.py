"""Cross-module integration tests.

These exercise whole slices of the system: schedulers against the MIP
constraint checker, the world against conservation-style invariants,
and reproducibility across module boundaries.
"""

import numpy as np
import pytest

from repro.core.combined import CombinedScheduler
from repro.core.greedy import GreedyScheduler
from repro.core.insertion import InsertionScheduler
from repro.core.mip import RechargeInstance, verify_routes
from repro.core.partition import PartitionScheduler
from repro.core.requests import RechargeNodeList, RechargeRequest
from repro.core.scheduling import RVView
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.world import World

ALL_SCHEDULERS = [
    GreedyScheduler(),
    InsertionScheduler(),
    PartitionScheduler(3),
    CombinedScheduler(),
]


def random_instance(seed, n=20, budget=15000.0):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 200, size=(n, 2))
    demands = rng.uniform(500, 1500, size=n)
    clusters = rng.integers(-1, 4, size=n)
    reqs = [
        RechargeRequest(i, positions[i], float(demands[i]), int(clusters[i]))
        for i in range(n)
    ]
    views = [
        RVView(rv_id=i, position=rng.uniform(0, 200, size=2), budget_j=budget, em_j_per_m=5.6)
        for i in range(3)
    ]
    return positions, demands, reqs, views


class TestSchedulersSatisfyFormulation:
    """Every scheduler's output must be a feasible JRSSAM solution."""

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plans_pass_verify_routes(self, scheduler, seed):
        positions, demands, reqs, views = random_instance(seed)
        lst = RechargeNodeList(reqs)
        plans = scheduler.assign(lst, views, np.random.default_rng(seed))
        # Budget check per RV view, node-disjointness across the fleet.
        routes = []
        for rv_id, plan in plans.items():
            view = next(v for v in views if v.rv_id == rv_id)
            inst = RechargeInstance(
                positions,
                demands,
                start=view.position,
                em_j_per_m=view.em_j_per_m,
                capacity_j=view.budget_j,
            )
            # Each single route must be feasible against its own RV.
            verify_routes(inst, [list(plan.node_ids)])
            routes.append(list(plan.node_ids))
        # Fleet-level: no node served twice.
        flat = [n for r in routes for n in r]
        assert len(flat) == len(set(flat))

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
    def test_assigned_nodes_removed_from_list(self, scheduler):
        _, _, reqs, views = random_instance(7)
        lst = RechargeNodeList(reqs)
        plans = scheduler.assign(lst, views, np.random.default_rng(7))
        assigned = {n for p in plans.values() for n in p.node_ids}
        remaining = set(lst.node_ids.tolist())
        assert assigned.isdisjoint(remaining)
        assert assigned | remaining == set(range(20))

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
    def test_plan_accounting_consistent(self, scheduler):
        positions, demands, reqs, views = random_instance(3)
        lst = RechargeNodeList(reqs)
        plans = scheduler.assign(lst, views, np.random.default_rng(3))
        for plan in plans.values():
            # Travel equals the waypoint polyline length.
            seg = np.diff(plan.waypoints, axis=0)
            assert plan.travel_m == pytest.approx(
                float(np.hypot(seg[:, 0], seg[:, 1]).sum()), rel=1e-9
            )
            # Demand equals the sum of served nodes' demands.
            assert plan.demand_j == pytest.approx(
                float(demands[list(plan.node_ids)].sum())
            )


class TestWorldConservation:
    def world(self, **kw):
        defaults = dict(
            n_sensors=50,
            n_targets=3,
            n_rvs=2,
            side_length_m=70.0,
            sim_time_s=1 * DAY_S,
            battery_capacity_j=400.0,
            initial_charge_range=(0.5, 0.8),
            dispatch_period_s=1800.0,
            seed=13,
        )
        defaults.update(kw)
        return World(SimulationConfig(**defaults))

    def test_rv_books_close(self):
        w = self.world()
        s = w.run()
        for rv in w.fleet.rvs:
            assert rv.stats.moving_energy_j == pytest.approx(
                rv.stats.distance_m * w.cfg.rv_moving_cost_j_per_m
            )
        assert s.n_recharges == sum(rv.stats.nodes_recharged for rv in w.fleet.rvs)

    def test_delivered_bounded_by_possible_consumption(self):
        """RVs cannot deliver more than the network could ever absorb:
        initial deficit plus the worst-case drain over the horizon."""
        w = self.world()
        initial = w.state.bank.levels_j.copy()
        s = w.run()
        capacity = w.cfg.battery_capacity_j
        initial_deficit = float(np.sum(capacity - initial))
        # Absolute worst-case power: every sensor active + relaying hard.
        power = w.state.power
        worst_power = w.cfg.n_sensors * (
            power.idle_power_w + power.active_sensing_power_w + power.relay_power_w(10.0)
        )
        assert s.delivered_energy_j <= initial_deficit + worst_power * s.sim_time_s

    def test_requested_mask_consistent_with_list(self):
        w = self.world()
        w.state.sim.run_until(w.cfg.sim_time_s / 3)
        listed = set(w.state.requests.node_ids.tolist())
        flagged = set(np.flatnonzero(w.state.requested).tolist())
        # Everything listed is flagged; flagged-but-not-listed nodes are
        # en route to being served (assigned to an RV itinerary).
        assert listed <= flagged
        in_itineraries = {n for rv in w.fleet.rvs for n in rv.itinerary}
        assert flagged - listed <= in_itineraries | flagged

    def test_run_is_reproducible_through_public_api(self):
        from repro import run_simulation

        cfg = SimulationConfig.small(seed=99)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert a.as_dict() == b.as_dict()


class TestActivationIntegration:
    def test_round_robin_spreads_load(self):
        """Within a surviving cluster, member battery levels stay closer
        together under round-robin than under full-time monitoring of a
        single unlucky sensor — the load-balancing claim of III-C."""
        cfg = SimulationConfig(
            n_sensors=60,
            n_targets=2,
            n_rvs=0,  # no recharging: watch pure drain
            side_length_m=60.0,
            sensing_range_m=20.0,
            sim_time_s=0.3 * DAY_S,
            battery_capacity_j=4000.0,
            initial_charge_range=(1.0, 1.0),
            target_period_s=2 * DAY_S,  # no relocation during the run
            seed=3,
        )
        w = World(cfg)
        w.state.sim.run_until(cfg.sim_time_s)
        w.energy.advance()
        for c in w.state.cluster_set:
            if c.size >= 2:
                levels = w.state.bank.levels_j[c.members]
                spread = levels.max() - levels.min()
                # One rotation slot of active drain bounds the spread.
                bound = (
                    w.state.power.active_sensing_power_w * cfg.tick_s * 2
                    + w.state.power.notification_energy_j() * 50
                )
                assert spread <= bound
