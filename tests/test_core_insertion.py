"""Unit tests for Algorithm 3 (insertion) and its chained repetition."""

import numpy as np
import pytest

from repro.core.insertion import (
    InsertionScheduler,
    build_insertion_sequence,
    expand_stops,
)
from repro.core.requests import (
    RechargeNodeList,
    RechargeRequest,
    aggregate_by_cluster,
)
from repro.core.scheduling import RVView


def req(node_id, x, y, demand, cluster=-1):
    return RechargeRequest(node_id, np.array([x, y]), demand, cluster)


def view(rv_id=0, pos=(0.0, 0.0), budget=1e9, em=1.0):
    return RVView(rv_id=rv_id, position=np.array(pos), budget_j=budget, em_j_per_m=em)


def stops_of(reqs):
    return aggregate_by_cluster(reqs)


def plan_one(reqs, rv):
    """The scheduler's chained plan for the one RV ``rv`` (None when it
    plans nothing); ``reqs`` is left holding the unserved requests."""
    lst = RechargeNodeList(reqs)
    plan = InsertionScheduler().assign(lst, [rv], np.random.default_rng(0)).get(rv.rv_id)
    reqs[:] = lst.snapshot()
    return plan


class TestBuildSequence:
    def test_destination_is_max_profit(self):
        stops = stops_of([req(0, 100, 0, 500), req(1, 10, 0, 50)])
        order = build_insertion_sequence(stops, [0, 0], 1e9, em_j_per_m=1.0)
        # Profits: 400 vs 40 -> destination is stop 0, and stop 1 lies
        # on the way (positive delta) so it is inserted before it.
        assert order == [1, 0]

    def test_on_path_nodes_inserted(self):
        stops = stops_of([req(0, 100, 0, 200), req(1, 50, 1, 60), req(2, 25, -1, 60)])
        order = build_insertion_sequence(stops, [0, 0], 1e9, em_j_per_m=1.0)
        assert order[-1] == 0
        assert set(order) == {0, 1, 2}
        # Inserted stops appear in travel order along the path.
        assert order == [2, 1, 0]

    def test_negative_delta_not_inserted(self):
        # A node far off the path with tiny demand is not worth the detour.
        stops = stops_of([req(0, 100, 0, 500), req(1, 50, 80, 1.0)])
        order = build_insertion_sequence(stops, [0, 0], 1e9, em_j_per_m=1.0)
        assert order == [0]

    def test_budget_limits_insertions(self):
        stops = stops_of([req(0, 10, 0, 50), req(1, 5, 0, 50)])
        # Destination is node 1 (profit 45 > 40); budget 70 covers it
        # (travel 5 + demand 50 = 55) but not also inserting node 0
        # (extra travel 5 + demand 50 = 55 more).
        order = build_insertion_sequence(stops, [0, 0], 70.0, em_j_per_m=1.0)
        assert order == [1]
        # With a bigger budget both fit.
        order = build_insertion_sequence(stops, [0, 0], 120.0, em_j_per_m=1.0)
        assert order == [0, 1] or order == [1, 0]
        assert set(order) == {0, 1}

    def test_unaffordable_instance_empty(self):
        stops = stops_of([req(0, 100, 0, 500)])
        assert build_insertion_sequence(stops, [0, 0], 10.0, em_j_per_m=1.0) == []

    def test_empty_stops(self):
        assert build_insertion_sequence([], [0, 0], 100.0, 1.0) == []

    def test_zero_budget(self):
        stops = stops_of([req(0, 1, 0, 1)])
        assert build_insertion_sequence(stops, [0, 0], 0.0, 1.0) == []

    def test_efficiency_inflates_cost(self):
        stops = stops_of([req(0, 1, 0, 50)])
        assert build_insertion_sequence(stops, [0, 0], 60.0, 1.0, charge_efficiency=0.5) == []
        assert build_insertion_sequence(stops, [0, 0], 102.0, 1.0, charge_efficiency=0.5) == [0]


class TestExpandStops:
    def test_cluster_expands_nearest_neighbor(self):
        reqs = [req(0, 50, 0, 10, cluster=1), req(1, 54, 0, 10, cluster=1), req(2, 52, 0, 10, cluster=1)]
        stops = stops_of(reqs)
        route = expand_stops(stops, [0], rv_position=np.array([0.0, 0.0]))
        assert route.node_ids == (0, 2, 1)
        assert route.travel_m == pytest.approx(54.0)
        assert route.demand_j == pytest.approx(30.0)

    def test_multi_stop_travel_measured_on_members(self):
        reqs = [req(0, 10, 0, 5), req(1, 20, 0, 5)]
        stops = stops_of(reqs)
        route = expand_stops(stops, [0, 1], rv_position=np.array([0.0, 0.0]))
        assert route.travel_m == pytest.approx(20.0)
        assert route.waypoints.shape == (3, 2)


class TestPlanSingleRV:
    def test_profit_accounting(self):
        plan = plan_one([req(0, 10, 0, 100)], view(em=2.0))
        assert plan.profit_j == pytest.approx(100 - 20)

    def test_none_when_unaffordable(self):
        assert plan_one([req(0, 10, 0, 100)], view(budget=5.0)) is None


class TestChained:
    def test_chains_until_list_empty(self):
        reqs = [req(i, 10.0 + i, 0, 20) for i in range(6)]
        plan = plan_one(reqs, view())
        assert len(plan.node_ids) == 6
        assert reqs == []  # consumed

    def test_chain_respects_budget(self):
        reqs = [req(0, 10, 0, 50), req(1, 90, 0, 50)]
        # Budget 70: serves node 0 (60) but cannot continue to node 1.
        plan = plan_one(reqs, view(budget=70.0))
        assert plan.node_ids == (0,)
        assert [r.node_id for r in reqs] == [1]

    def test_empty_list(self):
        assert plan_one([], view()) is None


class TestInsertionScheduler:
    def test_consumes_requests(self, rng):
        lst = RechargeNodeList([req(i, 5.0 * (i + 1), 0, 30) for i in range(4)])
        plans = InsertionScheduler().assign(lst, [view()], rng)
        assert len(lst) == 0
        assert sorted(plans[0].node_ids) == [0, 1, 2, 3]

    def test_sequential_rvs_share(self, rng):
        lst = RechargeNodeList(
            [req(0, 10, 0, 30), req(1, 12, 0, 30), req(2, 150, 0, 30), req(3, 152, 0, 30)]
        )
        views = [view(0, pos=(0, 0), budget=110.0), view(1, pos=(162, 0), budget=110.0)]
        plans = InsertionScheduler().assign(lst, views, rng)
        assert sorted(plans[0].node_ids) == [0, 1]
        assert sorted(plans[1].node_ids) == [2, 3]

    def test_cluster_served_atomically(self, rng):
        lst = RechargeNodeList(
            [req(0, 50, 0, 10, cluster=3), req(1, 51, 0, 10, cluster=3), req(2, 49, 0, 10, cluster=3)]
        )
        plans = InsertionScheduler().assign(lst, [view()], rng)
        assert sorted(plans[0].node_ids) == [0, 1, 2]
