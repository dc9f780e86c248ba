"""Nearest-neighbour tour construction.

The paper guides the recharging tour *inside* a cluster with "a
canonical TSP algorithm, such as the nearest neighbor algorithm with
time complexity O(nc^2)" (Section IV-C).  This module implements exactly
that heuristic for open paths starting from the RV's entry point.

Each point set is measured once into one pairwise matrix; a visited
city's column is then set to ``+inf``, so every "nearest unvisited
city" step is a single row argmin.  The matrix holds the same
``np.hypot`` values a per-step measurement produces and ``argmin``
keeps the lowest-index tie rule, so the tour is bit-identical to the
scalar heuristic (the test oracle in ``tests/oracles.py``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["nearest_neighbor_from"]


def nearest_neighbor_from(points: np.ndarray, start: Optional[np.ndarray]) -> List[int]:
    """Visit order produced by the nearest-neighbour heuristic.

    Args:
        points: ``(n, 2)`` float64 array of finite coordinates, the
            cities to visit.
        start: ``None`` or a ``(2,)`` float64 external starting
            position (e.g. the RV's current location).  When given, the
            first city is the one nearest ``start``; otherwise city 0
            starts the tour.

    Returns:
        A permutation of ``range(n)`` as a Python list.  Ties resolve to
        the lowest index, keeping the heuristic deterministic.

    The inputs are not validated: the planners pass member positions
    that :class:`~repro.core.requests.RechargeRequest` validated when it
    was made.
    """
    n = len(points)
    if n <= 1:
        return list(range(n))
    if start is None:
        current = 0
    else:
        gap = points - start
        current = int(np.argmin(np.hypot(gap[:, 0], gap[:, 1])))
    diff = points[:, None, :] - points[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    order = [current]
    for _ in range(n - 1):
        dist[:, current] = np.inf
        current = int(dist[current].argmin())
        order.append(current)
    return order
