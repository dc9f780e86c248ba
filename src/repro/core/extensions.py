"""Scheduler extensions beyond the paper's four algorithms.

The paper's related work and future-work directions motivate three
additions, built on the same :class:`~repro.core.scheduling.Scheduler`
interface so they drop into the simulator and the benchmarks:

* :class:`FCFSScheduler` — first-come-first-served: requests are served
  strictly in release order.  The classic fairness baseline.
* :class:`NearestFirstScheduler` — each RV repeatedly serves its
  nearest pending request, ignoring demands.  The pure-distance
  counterpart of the paper's profit-greedy baseline.
* :class:`TwoOptInsertionScheduler` — Algorithm 3 followed by a 2-opt
  improvement pass over the planned waypoints (ablation A3, online).
* :class:`DeadlineAwareScheduler` — insertion scheduling with a
  starvation guard in the spirit of the capacity/deadline-constrained
  scheduling of Wang et al. [10]: requests older than ``urgency_age_s``
  preempt the profit objective and are planned first.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..geometry.points import distance
from ..tsp.tour import open_tour_length
from ..tsp.two_opt import two_opt
from .insertion import InsertionScheduler, _plan_chained, _StopTable
from .requests import RechargeNodeList, RechargeRequest
from .scheduling import PlannedRoute, RVView

__all__ = [
    "FCFSScheduler",
    "NearestFirstScheduler",
    "TwoOptInsertionScheduler",
    "DeadlineAwareScheduler",
]


def _chain_route(picked: List[RechargeRequest], rv: RVView) -> PlannedRoute:
    waypoints = np.vstack([rv.position] + [r.position for r in picked])
    seg = np.diff(waypoints, axis=0)
    travel = float(np.hypot(seg[:, 0], seg[:, 1]).sum())
    demand = float(sum(r.demand_j for r in picked))
    return PlannedRoute(
        node_ids=tuple(r.node_id for r in picked),
        waypoints=waypoints,
        travel_m=travel,
        demand_j=demand,
        profit_j=demand - rv.em_j_per_m * travel,
    )


class FCFSScheduler:
    """Serve requests strictly in release order, chained per RV."""

    name = "fcfs"

    def assign(
        self,
        requests: RechargeNodeList,
        idle_rvs: List[RVView],
        rng: np.random.Generator,
    ) -> Dict[int, PlannedRoute]:
        plans: Dict[int, PlannedRoute] = {}
        queue = sorted(requests.snapshot(), key=lambda r: (r.release_time_s, r.node_id))
        for rv in idle_rvs:
            picked: List[RechargeRequest] = []
            position = rv.position
            budget = rv.budget_j
            while queue:
                nxt = queue[0]
                cost = distance(position, nxt.position) * rv.em_j_per_m + rv.delivery_cost(
                    nxt.demand_j
                )
                if cost > budget + 1e-9:
                    break
                queue.pop(0)
                picked.append(nxt)
                budget -= cost
                position = nxt.position
            if picked:
                plans[rv.rv_id] = _chain_route(picked, rv)
                requests.remove_many(p.node_id for p in picked)
        return plans


class NearestFirstScheduler:
    """Each RV repeatedly serves the nearest pending request."""

    name = "nearest"

    def assign(
        self,
        requests: RechargeNodeList,
        idle_rvs: List[RVView],
        rng: np.random.Generator,
    ) -> Dict[int, PlannedRoute]:
        plans: Dict[int, PlannedRoute] = {}
        for rv in idle_rvs:
            picked: List[RechargeRequest] = []
            position = rv.position
            budget = rv.budget_j
            while True:
                snapshot = requests.snapshot()
                if not snapshot:
                    break
                dists = [distance(position, r.position) for r in snapshot]
                nxt = snapshot[int(np.argmin(dists))]
                cost = min(dists) * rv.em_j_per_m + rv.delivery_cost(nxt.demand_j)
                if cost > budget + 1e-9:
                    break
                requests.remove(nxt.node_id)
                picked.append(nxt)
                budget -= cost
                position = nxt.position
            if picked:
                plans[rv.rv_id] = _chain_route(picked, rv)
        return plans


class TwoOptInsertionScheduler(InsertionScheduler):
    """Algorithm 3 plus a 2-opt post-pass on each planned route.

    The RV's start stays fixed; the interior visiting order (and the
    final stop) may be reordered whenever that shortens the path.
    """

    name = "insertion+2opt"

    def __init__(self, max_rounds: int = 25) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.max_rounds = max_rounds

    def assign(
        self,
        requests: RechargeNodeList,
        idle_rvs: List[RVView],
        rng: np.random.Generator,
    ) -> Dict[int, PlannedRoute]:
        em_by_rv = {v.rv_id: v.em_j_per_m for v in idle_rvs}
        plans = super().assign(requests, idle_rvs, rng)
        improved: Dict[int, PlannedRoute] = {}
        for rv_id, plan in plans.items():
            if len(plan) < 3:
                improved[rv_id] = plan
                continue
            pts = plan.waypoints  # row 0 is the RV position (stays pinned)
            order = two_opt(pts, list(range(len(pts))), max_rounds=self.max_rounds)
            new_nodes = tuple(plan.node_ids[i - 1] for i in order[1:])
            new_wp = pts[order]
            travel = open_tour_length(new_wp, list(range(len(new_wp))))
            improved[rv_id] = PlannedRoute(
                node_ids=new_nodes,
                waypoints=new_wp,
                travel_m=travel,
                demand_j=plan.demand_j,
                profit_j=plan.demand_j - em_by_rv[rv_id] * travel,
            )
        return improved


class DeadlineAwareScheduler:
    """Insertion scheduling with a starvation guard.

    Requests that have waited longer than ``urgency_age_s`` become
    *urgent*: while any exist, planning considers only them, so aged
    nodes cannot be perpetually out-bid by fresher, more profitable
    ones.  The world feeds the current time via :meth:`observe_time`.
    """

    name = "deadline"

    def __init__(self, urgency_age_s: float = 6 * 3600.0) -> None:
        if urgency_age_s <= 0:
            raise ValueError("urgency_age_s must be positive")
        self.urgency_age_s = urgency_age_s
        self.now_s = 0.0

    def observe_time(self, now_s: float) -> None:
        """Called by the world before each scheduling round."""
        self.now_s = float(now_s)

    def assign(
        self,
        requests: RechargeNodeList,
        idle_rvs: List[RVView],
        rng: np.random.Generator,
    ) -> Dict[int, PlannedRoute]:
        plans: Dict[int, PlannedRoute] = {}
        # One stop table over the urgent requests; once they are all
        # served (or if there are none) one over whatever is left.  The
        # urgent set only shrinks within a round, so each table is the
        # exact re-aggregation of its pool for every RV that plans on it.
        urgent = [
            r
            for r in requests
            if self.now_s - r.release_time_s >= self.urgency_age_s
        ]
        table = _StopTable.of(urgent or requests)
        whole = not urgent
        for rv in idle_rvs:
            if not table.live and not whole:
                table = _StopTable.of(requests)
                whole = True
            if not table.live:
                break
            plan = _plan_chained(table, rv)
            if plan is None:
                continue
            plans[rv.rv_id] = plan
            requests.remove_many(plan.node_ids)
        return plans
