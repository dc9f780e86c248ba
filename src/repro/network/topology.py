"""Unit-disk communication topology.

Sensors share a communication range ``dc`` (Table II: 12 m); two nodes
are linked iff they are within ``dc`` of each other.  The base station
participates in the graph as one extra vertex (the paper's ``v0``) so
multi-hop routes terminate there.

The adjacency is stored in CSR form (``indptr``/``indices``/``weights``)
— compact, cache-friendly, and exactly what the from-scratch Dijkstra
in :mod:`repro.network.dijkstra` consumes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geometry.points import as_points, pairs_within

__all__ = ["Topology"]


class Topology:
    """Immutable unit-disk graph over sensor positions plus a base station.

    Args:
        positions: ``(n, 2)`` sensor coordinates.
        comm_range: communication radius ``dc`` in meters.
        base_station: optional ``(2,)`` coordinate appended as the last
            vertex (index ``n``); links to every sensor within
            ``comm_range`` of it.
    """

    def __init__(
        self,
        positions: np.ndarray,
        comm_range: float,
        base_station: Optional[np.ndarray] = None,
    ) -> None:
        positions = as_points(positions)
        if comm_range <= 0:
            raise ValueError("comm_range must be positive")
        self.comm_range = float(comm_range)
        self.n_sensors = len(positions)
        if base_station is not None:
            base = np.asarray(base_station, dtype=np.float64).reshape(1, 2)
            self.points = np.vstack([positions, base])
            self.base_index: Optional[int] = self.n_sensors
        else:
            self.points = positions
            self.base_index = None
        self._build_csr()

    def _build_csr(self) -> None:
        n = len(self.points)
        pairs = pairs_within(self.points, self.comm_range)
        if len(pairs) == 0:
            self.indptr = np.zeros(n + 1, dtype=np.intp)
            self.indices = np.empty(0, dtype=np.intp)
            self.weights = np.empty(0, dtype=np.float64)
            self.n_edges = 0
            return
        # Symmetrize: every undirected pair becomes two directed arcs.
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        d = self.points[src] - self.points[dst]
        w = np.hypot(d[:, 0], d[:, 1])
        order = np.argsort(src, kind="stable")
        src, dst, w = src[order], dst[order], w[order]
        self.indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        self.indices = dst
        self.weights = w
        self.n_edges = len(pairs)

    def __len__(self) -> int:
        return len(self.points)

    def neighbors(self, node: int) -> np.ndarray:
        """Indices adjacent to ``node``."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def neighbor_weights(self, node: int) -> np.ndarray:
        """Edge lengths aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[node] : self.indptr[node + 1]]

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def is_connected_to_base(self) -> np.ndarray:
        """Boolean mask over sensors: can reach the base station.

        Computed with a BFS from the base vertex; requires the topology
        to have been built with a base station.
        """
        if self.base_index is None:
            raise ValueError("topology was built without a base station")
        seen = np.zeros(len(self.points), dtype=bool)
        stack = [self.base_index]
        seen[self.base_index] = True
        while stack:
            u = stack.pop()
            for v in self.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return seen[: self.n_sensors]
