"""Recharge requests and the base station's recharge node list.

Section II-A: sensors whose battery falls below the threshold send a
recharge request to the base station, which maintains a *recharge node
list* ``R`` and computes recharge schedules against it.  With Energy
Request Control (Section III-B) requests are released per cluster, so a
single RV visit can serve the whole cluster; to support that, the list
can *aggregate* co-clustered requests into one super-node whose demand
is the cluster's total (Section IV-C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..tsp.nearest_neighbor import nearest_neighbor_from

__all__ = ["RechargeRequest", "RechargeNodeList", "AggregatedRequest", "aggregate_by_cluster"]

#: Cluster id used for sensors that are not part of any target cluster.
UNCLUSTERED = -1


@dataclass(frozen=True)
class RechargeRequest:
    """One pending request.

    Attributes:
        node_id: the sensor's index in the network.
        position: ``(2,)`` sensor coordinates.
        demand_j: energy demand ``d_i = Ec - level`` at release time.
        cluster_id: the cluster the sensor belonged to when the request
            was released, or ``-1`` if unclustered.
        release_time_s: simulation time at which the request entered the
            list (used for latency metrics).
    """

    node_id: int
    position: np.ndarray
    demand_j: float
    cluster_id: int = UNCLUSTERED
    release_time_s: float = 0.0

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=np.float64).reshape(2)
        object.__setattr__(self, "position", position)
        # The one boundary check for the planners: NaN compares False
        # against everything, so a non-finite request would otherwise
        # slip past ``< 0`` and win (or silently lose) every argmax.
        if not (math.isfinite(position[0]) and math.isfinite(position[1])):
            raise ValueError("position must be finite")
        if not math.isfinite(self.demand_j):
            raise ValueError("demand_j must be finite")
        if self.demand_j < 0:
            raise ValueError("demand_j must be non-negative")


class RechargeNodeList:
    """The base station's ordered, de-duplicated request list ``R``.

    Requests keep insertion order (the order they were released), which
    makes simulations reproducible.  Adding a node that is already
    listed refreshes its demand in place instead of duplicating it.
    """

    def __init__(self, requests: Iterable[RechargeRequest] = ()) -> None:
        self._by_node: Dict[int, RechargeRequest] = {}
        for r in requests:
            self.add(r)

    def __len__(self) -> int:
        return len(self._by_node)

    def __iter__(self) -> Iterator[RechargeRequest]:
        return iter(self._by_node.values())

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_node

    def add(self, request: RechargeRequest) -> None:
        """Insert or refresh a request."""
        self._by_node[request.node_id] = request

    def remove(self, node_id: int) -> Optional[RechargeRequest]:
        """Drop the request for ``node_id`` if present; returns it."""
        return self._by_node.pop(node_id, None)

    def remove_many(self, node_ids: Iterable[int]) -> None:
        for nid in node_ids:
            self._by_node.pop(nid, None)

    def get(self, node_id: int) -> Optional[RechargeRequest]:
        return self._by_node.get(node_id)

    def clear(self) -> None:
        self._by_node.clear()

    @property
    def node_ids(self) -> np.ndarray:
        """Listed node ids in insertion order."""
        return np.fromiter(self._by_node.keys(), dtype=np.intp, count=len(self._by_node))

    def positions(self) -> np.ndarray:
        """``(n, 2)`` positions in insertion order."""
        if not self._by_node:
            return np.empty((0, 2), dtype=np.float64)
        return np.vstack([r.position for r in self._by_node.values()])

    def demands(self) -> np.ndarray:
        """``(n,)`` demands in insertion order."""
        return np.fromiter(
            (r.demand_j for r in self._by_node.values()),
            dtype=np.float64,
            count=len(self._by_node),
        )

    def cluster_ids(self) -> np.ndarray:
        """``(n,)`` cluster ids in insertion order."""
        return np.fromiter(
            (r.cluster_id for r in self._by_node.values()),
            dtype=np.int64,
            count=len(self._by_node),
        )

    def snapshot(self) -> List[RechargeRequest]:
        """A stable list copy of the current requests."""
        return list(self._by_node.values())


class AggregatedRequest:
    """A scheduling super-node: one cluster's pending requests as a unit.

    Section IV-C: "all energy demands from sensors inside a cluster are
    replaced by an aggregated cluster energy demand", and the RV serves
    every listed member in one visit, touring them nearest-neighbour.

    A slotted class: a planning round builds one per cluster of its
    backlog, and :func:`aggregate_by_cluster` hands each its centroid as
    a row of the array it already stacked, with no conversion per
    instance.  Treat instances as immutable.

    Attributes:
        position: representative position (member centroid; cluster
            diameter is at most twice the sensing range, so the
            approximation error is meters against a field of hundreds).
        demand_j: total demand of the members.
        members: the underlying requests, in released order.
        cluster_id: originating cluster, or ``-1`` for a singleton.
    """

    __slots__ = ("position", "demand_j", "members", "cluster_id", "_member_pts")

    def __init__(
        self, position: np.ndarray, demand_j: float, members: tuple, cluster_id: int
    ) -> None:
        self.position = np.asarray(position, dtype=np.float64).reshape(2)
        self.demand_j = demand_j
        self.members = members
        self.cluster_id = cluster_id
        self._member_pts = None

    @classmethod
    def _of(cls, position, demand_j, members, cluster_id, member_pts) -> "AggregatedRequest":
        """An instance from parts already in their final form: a ``(2,)``
        float64 ``position``, and the stacked ``(nc, 2)`` member rows or
        ``None`` to stack them on first use."""
        self = object.__new__(cls)
        self.position = position
        self.demand_j = demand_j
        self.members = members
        self.cluster_id = cluster_id
        self._member_pts = member_pts
        return self

    def __repr__(self) -> str:
        return (
            f"AggregatedRequest(position={self.position!r}, demand_j={self.demand_j!r}, "
            f"members={self.members!r}, cluster_id={self.cluster_id!r})"
        )

    def member_ids(self) -> List[int]:
        return [r.node_id for r in self.members]

    def member_positions(self) -> np.ndarray:
        """``(nc, 2)`` member coordinates, stacked once per instance."""
        if self._member_pts is None:
            self._member_pts = np.array([r.position for r in self.members])
        return self._member_pts

    def _tour_from(self, entry: np.ndarray) -> tuple:
        """Member requests in nearest-neighbour order from ``entry``, a
        ``(2,)`` float64 position (a waypoint of the planner's route).

        This is the paper's O(nc^2) intra-cluster tour; a lone member
        is its own tour.  The member positions were validated when the
        requests were made, so the tour skips the per-call checks.
        """
        members = self.members
        if len(members) == 1:
            return members
        order = nearest_neighbor_from(self.member_positions(), entry)
        return tuple(members[i] for i in order)

    def visit_order_from(self, entry: np.ndarray) -> List[int]:
        """Member node ids in nearest-neighbour order from ``entry``."""
        entry = np.asarray(entry, dtype=np.float64).reshape(2)
        return [r.node_id for r in self._tour_from(entry)]


def aggregate_by_cluster(requests: Iterable[RechargeRequest]) -> List[AggregatedRequest]:
    """Fold a request list into per-cluster super-nodes.

    Unclustered requests become singletons.  Order follows first
    appearance in the input, keeping scheduling deterministic.
    """
    return _aggregate(requests)[0]


def _aggregate(requests: Iterable[RechargeRequest]):
    """:func:`aggregate_by_cluster`, plus the stops' ``(k, 2)``
    centroids and ``(k,)`` demands as arrays (a planning round's stop
    table reads them as they are)."""
    groups: Dict[int, List[RechargeRequest]] = {}
    next_singleton = -2  # each unclustered node gets its own key
    for r in requests:
        if r.cluster_id == UNCLUSTERED:
            key = next_singleton
            next_singleton -= 1
        else:
            key = r.cluster_id
        members = groups.get(key)
        if members is None:
            groups[key] = [r]
        else:
            members.append(r)
    if not groups:
        return [], np.empty((0, 2)), np.empty(0)
    # Each centroid sums its members in list order from +0.0 and divides
    # by the count: the additions ``np.add.reduce(pts, axis=0)`` makes
    # over the group's own rows, so each position is
    # ``pts.mean(axis=0)`` bit for bit.  Python floats do the same IEEE
    # double arithmetic as numpy's, without a call per group.
    sums = []
    demands = []
    for members in groups.values():
        sx = sy = 0.0
        demand = 0
        for m in members:
            x, y = m.position.tolist()
            sx += x
            sy += y
            demand += m.demand_j
        size = len(members)
        sums.append((sx / size, sy / size))
        demands.append(float(demand))
    centroids = np.array(sums)
    stops = [
        AggregatedRequest._of(centroid, demand, tuple(members), members[0].cluster_id, None)
        for centroid, demand, members in zip(centroids, demands, groups.values())
    ]
    return stops, centroids, np.array(demands)
