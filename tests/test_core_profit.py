"""The recharge-profit objective (Eq. (2)) as the run path computes it.

One-shot node profits are :func:`repro.core.kernels.profit_vector`,
Algorithm 3's insertion profit difference is
:func:`repro.core.kernels.insertion_eval`, a planned sortie's profit is
:attr:`~repro.core.scheduling.PlannedRoute.profit_j` and a run's
objective is :attr:`~repro.sim.metrics.SimulationSummary.objective_j`.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.insertion import InsertionScheduler
from repro.core.requests import RechargeNodeList, RechargeRequest
from repro.core.scheduling import RVView
from repro.geometry.points import distances_from, pairwise_distances
from repro.sim.config import SimulationConfig
from repro.sim.metrics import MetricsCollector


def plan(requests, em_j_per_m):
    """The insertion scheduler's one plan for one RV at the origin."""
    rv = RVView(rv_id=0, position=np.zeros(2), budget_j=1e9, em_j_per_m=em_j_per_m)
    reqs = [
        RechargeRequest(i, np.array(pos, dtype=float), demand)
        for i, (pos, demand) in enumerate(requests)
    ]
    plans = InsertionScheduler().assign(RechargeNodeList(reqs), [rv], np.random.default_rng(0))
    return plans.get(0)


def gap_profit(route, candidate, demand, em_j_per_m):
    """``p(s, n)`` of inserting ``candidate`` into the one-gap route
    ``route[0] -> route[1]``, through the insertion kernel: the stop
    columns are the destination and the candidate, the RV is row 2."""
    stops = np.array([route[1], candidate], dtype=float)
    dist = np.concatenate((pairwise_distances(stops), distances_from(route[0], stops)[None, :]))
    p, _ = kernels.insertion_eval(
        dist,
        np.array([2, 0], dtype=np.intp),
        np.array([1], dtype=np.intp),
        np.array([demand]),
        np.array([demand]),
        em_j_per_m,
    )
    return float(p[0, 0])


class TestNodeProfits:
    def test_formula(self):
        dists = distances_from([0.0, 0.0], np.array([[10.0, 0.0], [0.0, 5.0]]))
        profits = kernels.profit_vector(np.array([100.0, 50.0]), dists, 2.0)
        assert profits.tolist() == [100.0 - 20.0, 50.0 - 10.0]

    def test_can_be_negative(self):
        dists = distances_from([0.0, 0.0], np.array([[100.0, 0.0]]))
        assert kernels.profit_vector(np.array([1.0]), dists, 5.6)[0] < 0

    def test_negative_em_rejected(self):
        """The travel price ``em`` is checked where it enters a run."""
        with pytest.raises(ValueError):
            SimulationConfig.small(rv_moving_cost_j_per_m=-1.0)


class TestRouteProfit:
    def test_open_route(self):
        """Demand served minus the travel of the open path: the return
        leg is not charged."""
        route = plan([((1.0, 0.0), 10.0), ((2.0, 0.0), 20.0)], em_j_per_m=1.0)
        assert route.node_ids == (0, 1)
        assert route.profit_j == pytest.approx(30.0 - 2.0)

    def test_empty_route(self):
        assert plan([], em_j_per_m=1.0) is None

    def test_travel_cost(self):
        route = plan([((3.0, 4.0), 100.0)], em_j_per_m=2.0)
        assert route.travel_m == pytest.approx(5.0)
        assert route.demand_j - route.profit_j == pytest.approx(10.0)

    def test_total_objective_sums(self):
        """A run's Eq. (2) score: energy delivered minus RV travel."""
        m = MetricsCollector()
        m.start(0.0, coverage=1.0, nonfunctional=0.0, operational=10.0)
        summary = m.finalize(
            100.0,
            rv_distance_m=5.0,
            rv_moving_energy_j=28.0,
            delivered_energy_j=30.5,
            n_sorties=2,
            events_fired=0,
        )
        assert summary.objective_j == pytest.approx(2.5)


class TestInsertionDelta:
    def test_on_path_insertion_free(self):
        # Inserting a point that lies on the segment adds no detour.
        d = gap_profit([[0.0, 0.0], [10.0, 0.0]], [5.0, 0.0], 7.0, em_j_per_m=1.0)
        assert d == pytest.approx(7.0)

    def test_detour_charged(self):
        # Point at (5, 5): detour = 2*sqrt(50) - 10.
        detour = 2 * np.hypot(5, 5) - 10
        d = gap_profit([[0.0, 0.0], [10.0, 0.0]], [5.0, 5.0], 7.0, em_j_per_m=2.0)
        assert d == pytest.approx(7.0 - 2.0 * detour)
