"""The greedy baseline (Algorithm 2).

Each step, each RV with enough energy drives to the single listed node
with the maximum recharge profit ``d_i - em * dist(rv, i)`` and
recharges *only that node*.  No look-ahead, no cluster batching — the
paper introduces it precisely to expose how much traveling energy a
profit-myopic policy wastes.

The round loop is a masked argmax over one shared snapshot: positions
and demands are stacked once per scheduling round, served nodes are
masked out, and each pick reuses the round's
:class:`~repro.core.kernels.DistanceCache` — after the first hop an
RV stands *on* a listed stop, so its next profit evaluation is a row
of the shared stop/stop matrix rather than a fresh measurement.  The
pick itself is :func:`repro.core.kernels.greedy_pick`, whose reference
path is the original per-element loop; both are bit-identical to the
historic re-stack-the-snapshot implementation (masking never changes
the elementwise profit arithmetic or the lowest-index tie rule).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..geometry.points import distances_from
from ..tsp.tour import leg_lengths
from . import kernels
from .requests import RechargeNodeList, RechargeRequest
from .scheduling import PlannedRoute, RVView

__all__ = ["GreedyScheduler", "greedy_destination"]


def greedy_destination(
    demands: np.ndarray,
    positions: np.ndarray,
    rv_position: np.ndarray,
    em_j_per_m: float,
) -> Optional[int]:
    """Index of the max-profit node (Algorithm 2, line 8).

    Ties resolve to the lowest index.  Returns ``None`` for an empty
    instance.  The paper's greedy picks the best node even at negative
    profit — starving nodes must still be served.
    """
    if len(demands) == 0:
        return None
    if em_j_per_m < 0:
        raise ValueError("em_j_per_m must be non-negative")
    dists = distances_from(rv_position, positions)
    return kernels.greedy_pick(demands, dists, em_j_per_m)


class _GreedyState:
    """One RV's virtual state while Algorithm 2's loop runs."""

    __slots__ = ("rv", "position", "budget", "picked", "flag", "at_stop")

    def __init__(self, rv: RVView) -> None:
        self.rv = rv
        self.position = rv.position
        self.budget = rv.budget_j
        self.picked: List[RechargeRequest] = []
        self.flag = True  # "this RV has enough energy" (Alg. 2 line 1)
        self.at_stop: Optional[int] = None  # snapshot index the RV stands on


class GreedyScheduler:
    """Online Algorithm 2.

    Per scheduling round the paper's loop runs to exhaustion: while the
    list is non-empty and some RV still has energy, each RV in turn
    takes the max-profit node *from its current (virtual) position*,
    updates its position and energy books, and continues.  The chains
    so produced are each RV's itinerary for the round.  No route
    planning, no cluster batching — exactly the baseline's myopia.
    """

    name = "greedy"

    def assign(
        self,
        requests: RechargeNodeList,
        idle_rvs: List[RVView],
        rng: np.random.Generator,
    ) -> Dict[int, PlannedRoute]:
        states = [_GreedyState(rv) for rv in idle_rvs]
        snapshot = requests.snapshot()
        if snapshot and states:
            positions = np.array([r.position for r in snapshot])
            demands = np.array([r.demand_j for r in snapshot], dtype=np.float64)
            cache = kernels.DistanceCache(positions)
            # Every pick after an RV's first stands on a listed stop, and a
            # round picks about as many stops as it lists: measure the
            # whole stop/stop matrix at once, so each row is a slice.
            cache.pairwise
            unserved = np.ones(len(snapshot), dtype=bool)
            left = len(snapshot)  # == np.count_nonzero(unserved)
            while left and any(s.flag for s in states):
                for st in states:
                    if not left:
                        break
                    if not st.flag:
                        continue
                    dists = (
                        cache.row(st.at_stop)
                        if st.at_stop is not None
                        else cache.from_point(st.position)
                    )
                    idx = kernels.greedy_pick(
                        demands, dists, st.rv.em_j_per_m, mask=unserved
                    )
                    chosen = snapshot[idx]
                    travel = float(dists[idx])
                    cost = travel * st.rv.em_j_per_m + st.rv.delivery_cost(
                        chosen.demand_j
                    )
                    if cost > st.budget + 1e-9:
                        st.flag = False  # recharge threshold of h_i violated
                        continue
                    st.picked.append(chosen)
                    st.budget -= cost
                    st.position = chosen.position
                    st.at_stop = idx
                    unserved[idx] = False
                    left -= 1
                    requests.remove(chosen.node_id)
        plans: Dict[int, PlannedRoute] = {}
        for st in states:
            if not st.picked:
                continue
            waypoints = np.array([st.rv.position] + [r.position for r in st.picked])
            travel = float(leg_lengths(waypoints).sum())
            demand = float(sum(r.demand_j for r in st.picked))
            plans[st.rv.rv_id] = PlannedRoute(
                node_ids=tuple(r.node_id for r in st.picked),
                waypoints=waypoints,
                travel_m=travel,
                demand_j=demand,
                profit_j=demand - st.rv.em_j_per_m * travel,
            )
        return plans
