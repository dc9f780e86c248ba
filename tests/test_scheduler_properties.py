"""Every scheduler's plans against the MIP formulation, on generated
instances (hypothesis).

On random instances of at most eight requests, with random demands,
cluster labels, RV budget and fleet size, every registered scheduler's
plans must pass :func:`repro.core.mip.verify_routes`: each node served
once, every route a simple path, every route within the RV capacity
(constraint (7)).  All RVs start at the same point with the same
budget, which is what :class:`~repro.core.mip.RechargeInstance` models.

Algorithm 3 opens its route at the max-profit affordable node and only
performs insertions with a positive profit difference, so its route's
Eq. (2) profit is at least that first destination's single-node profit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import plan_single_rv
from repro.core.mip import RechargeInstance, verify_routes
from repro.core.requests import RechargeNodeList, RechargeRequest
from repro.core.scheduling import RVView
from repro.registry import SCHEDULERS

EM_J_PER_M = 5.6

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)
demand = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw, clustered=True):
    """``(positions, demands, clusters, start, capacity)`` with 1-8 nodes."""
    n = draw(st.integers(1, 8))
    positions = np.array([[draw(coords), draw(coords)] for _ in range(n)])
    demands = np.array([draw(demand) for _ in range(n)])
    clusters = (
        [draw(st.integers(-1, 2)) for _ in range(n)] if clustered else [-1] * n
    )
    start = np.array([draw(coords), draw(coords)])
    capacity = draw(st.floats(min_value=100.0, max_value=20000.0))
    return positions, demands, clusters, start, capacity


def _requests(positions, demands, clusters):
    return [
        RechargeRequest(i, positions[i], float(demands[i]), cluster_id=clusters[i])
        for i in range(len(positions))
    ]


@pytest.mark.parametrize("name", sorted(SCHEDULERS.names()))
@given(inst=instances(), n_rvs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_every_plan_passes_verify_routes(name, inst, n_rvs, seed):
    positions, demands, clusters, start, capacity = inst
    scheduler = SCHEDULERS.build(name, fleet_size=n_rvs)
    observe = getattr(scheduler, "observe_time", None)
    if observe is not None:
        observe(0.0)
    requests = RechargeNodeList(_requests(positions, demands, clusters))
    views = [
        RVView(rv_id=i, position=start, budget_j=capacity, em_j_per_m=EM_J_PER_M, depot=start)
        for i in range(n_rvs)
    ]
    plans = scheduler.assign(requests, views, np.random.default_rng(seed))
    instance = RechargeInstance(
        positions, demands, start, em_j_per_m=EM_J_PER_M, capacity_j=capacity
    )
    routes = [list(plan.node_ids) for plan in plans.values()]
    verify_routes(instance, routes)
    # The planned nodes left the list, and only they did.
    served = {node for route in routes for node in route}
    assert set(requests.node_ids.tolist()) == set(range(len(positions))) - served


@given(inst=instances(clustered=False))
@settings(max_examples=100, deadline=None)
def test_algorithm3_beats_its_first_destination(inst):
    positions, demands, clusters, start, capacity = inst
    rv = RVView(rv_id=0, position=start, budget_j=capacity, em_j_per_m=EM_J_PER_M)
    plan = plan_single_rv(_requests(positions, demands, clusters), rv)
    if plan is None:
        return
    instance = RechargeInstance(
        positions, demands, start, em_j_per_m=EM_J_PER_M, capacity_j=capacity
    )
    order = list(plan.node_ids)
    verify_routes(instance, [order])
    # The destination is chosen first and stays the route's last stop.
    dest = order[-1]
    single = instance.route_profit([dest])
    assert instance.route_profit(order) >= single - 1e-9 * max(1.0, abs(single))
