"""Single-RV recharging-sequence construction (Algorithm 3).

The heuristic that replaces the greedy baseline:

1. Pick the max-profit node as the sortie's **destination** and open the
   route ``Q = [crt -> dest]``.
2. Repeatedly evaluate the *profit difference*
   ``p(s, n) = D(n) - em * delta_d(s)`` of inserting each unscheduled
   node ``n`` at each position ``s`` of the route, and perform the most
   profitable insertion as long as it is strictly positive and the RV
   can still afford the grown route.
3. Stop when no insertion is positive/affordable; the route is the RV's
   recharging sequence.

Scheduling operates on *aggregated* cluster super-nodes (Section IV-C):
a cluster's pending demands enter the route as one stop with the summed
demand, and the final sequence expands each cluster stop into the
paper's O(nc^2) nearest-neighbour member tour.

One stop table per round
------------------------

A dispatch round aggregates its backlog into super-nodes **once**
(:class:`_StopTable`: the stops, their positions and demands, and one
:class:`~repro.core.kernels.DistanceCache`).  Every chained sequence
and every RV of the round then plans over the table's *live* stops by
index, and the stops a plan serves drop out.  This is exact, not an
approximation of re-aggregating what is left: Algorithm 3 inserts and
trims whole stops, so the unserved requests are exactly the members of
the live stops, and re-aggregating them would rebuild the same stops
(same members, same centroids, same summed demands) in the same order.
Keeping the live subset in table order keeps the lowest-index tie rule
of every masked argmax.  Because the same stop objects serve the whole
round, their memoized member tours hit across sequences and RVs.

The traffic is small and always the same shape (the 18-cell Fig. 6
grid: a backlog of 10-11.5 requests on average, at most 58, folding
into 7-8 stops, with 3 idle RVs), so per-call numpy overhead sets the
cost, not the arithmetic.  Positions are validated once, where the
table's cache is built.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tsp.tour import leg_lengths
from . import kernels
from .requests import AggregatedRequest, RechargeNodeList, _aggregate
from .scheduling import PlannedRoute, RVView

__all__ = ["InsertionScheduler", "build_insertion_sequence", "expand_stops"]


class _StopTable:
    """One planning round's super-nodes, aggregated once.

    ``demands`` holds the stops' summed demands and ``cache`` measures
    their centroids.  ``live`` lists the unserved stops in table order
    and ``mask`` is the same set as a boolean vector; :meth:`serve`
    drops stops.
    """

    __slots__ = ("stops", "demands", "cache", "live", "mask", "_dist")

    def __init__(
        self,
        stops: Sequence[AggregatedRequest],
        positions: np.ndarray,
        demands: np.ndarray,
    ) -> None:
        self.stops = stops
        n = len(stops)
        self.demands = demands
        self.cache = kernels.DistanceCache(positions)
        self.live = list(range(n))
        self.mask = np.ones(n, dtype=bool)
        self._dist: Optional[np.ndarray] = None

    @classmethod
    def of(cls, requests) -> "_StopTable":
        """The table of ``requests`` folded into cluster super-nodes."""
        return cls(*_aggregate(requests))

    @classmethod
    def of_stops(cls, stops: Sequence[AggregatedRequest]) -> "_StopTable":
        """The table of super-nodes built elsewhere."""
        positions = np.array([s.position for s in stops]) if stops else np.empty((0, 2))
        return cls(stops, positions, np.array([s.demand_j for s in stops], dtype=np.float64))

    def dist_from(self, rv_dist: np.ndarray) -> np.ndarray:
        """The stop/stop matrix with ``rv_dist`` as its last row: one
        buffer per round, whose spare row each sequence overwrites."""
        dist = self._dist
        if dist is None:
            n = len(self.stops)
            dist = self._dist = np.empty((n + 1, n))
            dist[:n] = self.cache.pairwise
        dist[-1] = rv_dist
        return dist

    def serve(self, served: Sequence[int]) -> None:
        self.mask[served] = False
        done = set(served)
        self.live = [i for i in self.live if i not in done]


def _insertion_order(
    table: _StopTable,
    rv_position: np.ndarray,
    budget_j: float,
    em_j_per_m: float,
    charge_efficiency: float,
) -> List[int]:
    """Algorithm 3 over the table's live stops; table indices in visit
    order (see :func:`build_insertion_sequence`)."""
    if not table.live or budget_j <= 0:
        return []
    demands = table.demands
    # Stop/stop and RV/stop distances are measured once per round; every
    # iteration below gathers its gap geometry out of the cached
    # matrices.  ``np.hypot`` is sign-insensitive, so the gathered values
    # are bit-identical to a direct per-iteration measurement either
    # direction.
    dist0 = table.cache.from_point(rv_position)
    profits = kernels.profit_vector(demands, dist0, em_j_per_m)
    delivery = demands / charge_efficiency
    costs = em_j_per_m * dist0 + delivery

    # Destination: best profit among affordable live nodes (Alg. 3 line
    # 2, "Update RV's information to reserve energy for the dest node").
    candidates = costs <= budget_j + 1e-9
    candidates &= table.mask
    dest = kernels.masked_argmax(profits, candidates)
    if dest is None:
        return []
    open_stops = [i for i in table.live if i != dest]
    if not open_stops:
        return [dest]
    spent = costs.item(dest)
    # The candidate columns stay fixed for the whole loop and inserted
    # ones are masked out: the open columns keep their order, so the
    # row-major first maximum picks the same insertion as it would over
    # the compacted remainder.
    cand = np.array(open_stops, dtype=np.intp)
    cand_demands = demands[cand]
    cand_delivery = delivery[cand]
    n_open = len(cand)
    is_open = np.ones(n_open, dtype=bool)
    # Waypoint rows: the stops' rows of the round's matrix, plus the RV's
    # distances as its last row.  The route grows in place in ``route``,
    # whose first ``k`` entries are the waypoints.
    dist = table.dist_from(dist0)
    route = np.empty(n_open + 2, dtype=np.intp)
    route[0] = len(demands)
    route[1] = dest
    k = 2
    while n_open and spent < budget_j:
        # Evaluate p(s, n) for every gap s and every open stop n.
        p, extra_cost = kernels.insertion_eval(
            dist, route[:k], cand, cand_demands, cand_delivery, em_j_per_m
        )
        feasible = p > 1e-12
        feasible &= extra_cost + spent <= budget_j + 1e-9
        feasible &= is_open
        pick = kernels.masked_argmax_2d(p, feasible)
        if pick is None:
            break
        s0, c0 = pick
        route[s0 + 2 : k + 1] = route[s0 + 1 : k]  # after waypoint s0
        route[s0 + 1] = open_stops[c0]
        k += 1
        is_open[c0] = False
        n_open -= 1
        spent += extra_cost.item(s0, c0)
    return route[1:k].tolist()


def build_insertion_sequence(
    stops: Sequence[AggregatedRequest],
    rv_position: np.ndarray,
    budget_j: float,
    em_j_per_m: float,
    charge_efficiency: float = 1.0,
) -> List[int]:
    """Algorithm 3 over super-nodes; returns stop indices in visit order.

    Args:
        stops: candidate super-nodes (aggregated requests).
        rv_position: the RV's current location (``crt``).
        budget_j: remaining sortie energy for travel plus delivery.
        em_j_per_m: traveling energy rate.
        charge_efficiency: delivering ``d`` costs ``d / efficiency``.

    Returns:
        Indices into ``stops``; empty if even the best destination is
        unaffordable.  The destination (first chosen, highest profit)
        is always the *last* element — insertions happen strictly
        between the RV and the destination.
    """
    if len(stops) == 0 or budget_j <= 0:
        return []
    return _insertion_order(
        _StopTable.of_stops(stops), rv_position, budget_j, em_j_per_m, charge_efficiency
    )


def _expand(
    stops: Sequence[AggregatedRequest],
    order: Sequence[int],
    rv_position: np.ndarray,
) -> Tuple[List[int], np.ndarray, List[int], List[float]]:
    """Unroll ``order`` into member waypoints.

    ``rv_position`` is a ``(2,)`` float64 array.  Returns the visited
    node ids, the ``[rv] + members`` waypoint array, and per stop the
    waypoint count and the running demand after it — a trimmed route is
    a prefix of the full expansion, since each stop is entered from
    wherever the previous one ended.
    """
    node_ids: List[int] = []
    waypoints = [rv_position]
    ends: List[int] = []
    demands: List[float] = []
    demand = 0.0
    entry = rv_position
    for idx in order:
        stop = stops[idx]
        for r in stop._tour_from(entry):
            node_ids.append(r.node_id)
            waypoints.append(r.position)
        demand += stop.demand_j
        ends.append(len(waypoints))
        demands.append(demand)
        entry = waypoints[-1]
    return node_ids, np.array(waypoints), ends, demands


def expand_stops(
    stops: Sequence[AggregatedRequest],
    order: Sequence[int],
    rv_position: np.ndarray,
) -> PlannedRoute:
    """Expand a super-node visit order into a sensor-level route.

    Each cluster stop unrolls into its nearest-neighbour member tour
    entered from wherever the RV last stood; travel and demand are then
    re-measured on the expanded polyline (the planner's centroid
    approximation is replaced by exact member positions).
    """
    rv_position = np.asarray(rv_position, dtype=np.float64).reshape(2)
    node_ids, wp, _, demands = _expand(stops, order, rv_position)
    travel = float(leg_lengths(wp).sum()) if len(wp) > 1 else 0.0
    demand = demands[-1] if demands else 0.0
    return PlannedRoute(
        node_ids=tuple(node_ids),
        waypoints=wp,
        travel_m=travel,
        demand_j=demand,
        profit_j=demand - 0.0,  # caller overwrites with its em; see plan()
    )


def _plan_sequence(
    table: _StopTable,
    position: np.ndarray,
    budget_j: float,
    em_j_per_m: float,
    charge_efficiency: float,
):
    """One trimmed Algorithm 3 sequence over the table's live stops.

    Returns ``(node_ids, waypoints, travel_m, demand_j, stops)`` or
    ``None``.  The insertion feasibility check prices a cluster at its
    centroid; after expanding each cluster into its member tour the
    route is re-measured against the budget, and trailing stops are
    trimmed while the expansion overruns it — constraint (7) holds on
    the *actual* route, not the approximation.
    """
    order = _insertion_order(table, position, budget_j, em_j_per_m, charge_efficiency)
    if not order:
        return None
    node_ids, wp, ends, demands = _expand(table.stops, order, position)
    # A trimmed route's legs are a prefix of the full route's.
    legs = leg_lengths(wp)
    for k in range(len(order), 0, -1):
        m = ends[k - 1]
        travel = float(legs[: m - 1].sum()) if m > 1 else 0.0
        demand = demands[k - 1]
        if travel * em_j_per_m + demand / charge_efficiency <= budget_j + 1e-6:
            return node_ids[: m - 1], wp[:m], travel, demand, order[:k]
    return None


def _plan_chained(table: _StopTable, rv: RVView) -> Optional[PlannedRoute]:
    """Repeat Algorithm 3 for one RV until the table's live stops or
    its budget run out; the served stops leave the table.

    "After the RV finishes its current recharging sequence, the
    algorithm is repeated until all the nodes in R are recharged"
    (Section IV-C): successive sequences are planned from wherever the
    previous one ended, with whatever budget remains, and chained into
    one itinerary.
    """
    em = rv.em_j_per_m
    eff = rv.charge_efficiency
    position = rv.position
    budget = rv.budget_j
    chained_ids: List[int] = []
    waypoints = [position]
    total_travel = 0.0
    total_demand = 0.0
    while table.live and budget > 0:
        plan = _plan_sequence(table, position, budget, em, eff)
        if plan is None:
            break
        node_ids, wp, travel, demand, served = plan
        chained_ids.extend(node_ids)
        waypoints.extend(wp[1:])
        total_travel += travel
        total_demand += demand
        budget -= travel * em + demand / eff
        position = wp[-1]
        table.serve(served)
    if not chained_ids:
        return None
    return PlannedRoute(
        node_ids=tuple(chained_ids),
        waypoints=np.array(waypoints),
        travel_m=total_travel,
        demand_j=total_demand,
        profit_j=total_demand - em * total_travel,
    )


class InsertionScheduler:
    """Online Algorithm 3 for a single RV (Section IV-C).

    With one RV this *is* the paper's single-RV algorithm; with several
    it behaves like the Combined-Scheme (each idle RV plans against
    what is left of the global list), which is why
    :class:`~repro.core.combined.CombinedScheduler` subclasses it.
    """

    name = "insertion"

    #: Algorithm 3 aggregates co-clustered requests into super-nodes and
    #: trims whole stops, so a plan serves each cluster's backlog
    #: entirely or not at all.  The invariant monitors
    #: (:mod:`repro.obs.monitors`) verify this for every scheduler that
    #: advertises it (subclasses inherit the claim).
    atomic_cluster_service = True

    def assign(
        self,
        requests: RechargeNodeList,
        idle_rvs: List[RVView],
        rng: np.random.Generator,
    ) -> Dict[int, PlannedRoute]:
        plans: Dict[int, PlannedRoute] = {}
        table = _StopTable.of(requests)
        for rv in idle_rvs:
            if not table.live:
                break
            plan = _plan_chained(table, rv)
            if plan is None:
                continue
            plans[rv.rv_id] = plan
            requests.remove_many(plan.node_ids)
        return plans
