"""Shortest-path-tree routing to the base station.

Every sensor forwards its reports along the Dijkstra shortest path to
the base station (paper, Section V).  The whole routing state is one
parent vector rooted at the base vertex, which makes relay-load
accounting (see :mod:`repro.network.traffic`) a linear pass.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

from .dijkstra import shortest_paths
from .topology import Topology

__all__ = ["RoutingTree", "SubtreeIndex", "ancestor_table", "subtree_index"]


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

    def next_hop(self, node: int) -> int:
        """The vertex ``node`` forwards to (may be the base index)."""
        hop = int(self.parent[node])
        if hop < 0 and node != self.base:
            raise ValueError(f"node {node} has no route to the base station")
        return hop

    def path_to_base(self, node: int) -> List[int]:
        """Vertex sequence from ``node`` to the base station, inclusive."""
        if not np.isfinite(self.dist[node]):
            raise ValueError(f"node {node} has no route to the base station")
        path = [int(node)]
        while path[-1] != self.base:
            path.append(int(self.parent[path[-1]]))
            if len(path) > len(self.topology):
                raise RuntimeError("routing parent pointers contain a cycle")
        return path

    def hop_counts(self) -> np.ndarray:
        """Number of hops from each sensor to the base (-1 if unreachable).

        Computed iteratively in topological (distance) order so the pass
        is linear in the number of vertices.
        """
        order = np.argsort(self.dist, kind="stable")
        hops = np.full(len(self.topology), -1, dtype=np.int64)
        hops[self.base] = 0
        for v in order:
            p = self.parent[v]
            if p >= 0 and hops[p] >= 0:
                hops[v] = hops[p] + 1
        return hops[: self.n_sensors]


class SubtreeIndex(NamedTuple):
    """A static routing tree laid out in DFS preorder.

    Sensor ``v``'s subtree is ``pre[tin[v]:tout[v]]`` and its strict
    subtree (``v`` left out) ``pre[tsub[v]:tout[v]]``; sensors with no
    route to the base have the empty ranges ``tin == tsub == tout == 0``.
    """

    pre: np.ndarray  # (r,) the r reachable sensors in preorder
    tin: np.ndarray  # (n,) int64 start of each subtree range
    tout: np.ndarray  # (n,) int64 end (exclusive) of each subtree range
    cs: np.ndarray  # (r + 1,) int64 prefix-sum scratch, cs[0] == 0
    tsub: np.ndarray  # (n,) int64 start of each strict subtree range, tin + 1


def subtree_index(parent: np.ndarray, base: int, n: int) -> SubtreeIndex:
    """DFS preorder and subtree ranges of the routing tree ``parent``.

    ``parent`` holds each vertex's next hop toward ``base`` (``-1`` at
    the base and at disconnected vertices); the ``n`` sensors are the
    vertices other than the base.  Children are visited in ascending id
    order.  Every subtree is one contiguous preorder range, so any
    per-subtree sum is the difference of two prefix sums in preorder.
    """
    parent = np.asarray(parent, dtype=np.int64)
    # Children of every vertex in ascending id order, as CSR rows.
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.argsort(parent[kids], kind="stable")]
    bounds = np.searchsorted(parent[kids], np.arange(len(parent) + 1)).tolist()
    kids = kids.tolist()
    pre: List[int] = []
    stack = kids[bounds[base] : bounds[base + 1]][::-1]
    while stack:
        v = stack.pop()
        pre.append(v)
        stack.extend(kids[bounds[v] : bounds[v + 1]][::-1])
    # Subtree sizes, children before parents (reverse preorder).
    up = parent.tolist()
    size = [1] * len(up)
    for v in reversed(pre):
        size[up[v]] += size[v]
    order = np.asarray(pre, dtype=np.int64)
    tin = np.zeros(n, dtype=np.int64)
    tin[order] = np.arange(len(order), dtype=np.int64)
    tout = tin.copy()
    tout[order] += np.asarray(size, dtype=np.int64)[order]
    tsub = np.zeros(n, dtype=np.int64)
    tsub[order] = tin[order] + 1
    return SubtreeIndex(
        order, tin, tout, np.zeros(len(order) + 1, dtype=np.int64), tsub
    )


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
