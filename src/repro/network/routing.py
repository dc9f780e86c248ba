"""Shortest-path-tree routing to the base station.

Every sensor forwards its reports along the Dijkstra shortest path to
the base station (paper, Section V).  The whole routing state is one
parent vector rooted at the base vertex.  Relay loads come from
:func:`ancestor_table`: each sensor's strict ancestors, which the
simulator gathers once per re-pricing
(:func:`repro.sim.soa.relay_counts`).
"""

from __future__ import annotations

import numpy as np

from .dijkstra import shortest_paths
from .topology import Topology

__all__ = ["RoutingTree", "ancestor_table"]


class RoutingTree:
    """The shortest-path tree rooted at the base station.

    Attributes:
        dist: distance of every vertex to the base (``inf`` when
            disconnected).
        parent: next hop of every vertex *toward* the base (``-1`` for
            the base itself and for disconnected vertices).
    """

    def __init__(self, topology: Topology) -> None:
        if topology.base_index is None:
            raise ValueError("routing requires a topology with a base station")
        self.topology = topology
        self.base = topology.base_index
        # Dijkstra from the base; on an undirected graph the tree of
        # parents *from* the base is exactly the next-hop tree *to* it.
        self.dist, self.parent = shortest_paths(
            topology.indptr, topology.indices, topology.weights, self.base
        )

    @property
    def n_sensors(self) -> int:
        return self.topology.n_sensors

    def connected_mask(self) -> np.ndarray:
        """Sensors with a route to the base station."""
        return np.isfinite(self.dist[: self.n_sensors])


def ancestor_table(parent: np.ndarray, base: int, n: int) -> np.ndarray:
    """Every sensor's strict ancestors in the routing tree ``parent``.

    Row ``v`` of the ``(n, depth)`` int64 table lists the sensors on
    ``v``'s path to ``base``, nearest first, padded with ``n``; a sensor
    with no route to ``base`` (its path ends at a ``-1``) has a row of
    padding only, and ``depth`` is the largest number of sensors above
    any routed sensor.  Any per-origin path sum is then one gather of
    the origins' rows and one ``bincount`` with ``n`` as the discard bin.
    """
    parent = np.asarray(parent, dtype=np.int64)
    # Each sensor's next hop when that hop is a sensor, else the pad.
    up = parent[:n].copy()
    up[(up < 0) | (up >= n)] = n
    hop = np.append(up, n)  # the pad maps to itself
    cols = []
    col = up
    while (col < n).any():
        if len(cols) == n:
            raise ValueError("routing parents contain a cycle")
        cols.append(col)
        col = hop[col]
    table = np.stack(cols, axis=1) if cols else np.empty((n, 0), dtype=np.int64)
    # A sensor is routed iff the last sensor on its path hops to ``base``.
    top = np.arange(n, dtype=np.int64)
    for col in cols:
        top = np.where(col < n, col, top)
    table[parent[top] != base] = n
    return table
