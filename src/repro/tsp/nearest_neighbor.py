"""Nearest-neighbour tour construction.

The paper guides the recharging tour *inside* a cluster with "a
canonical TSP algorithm, such as the nearest neighbor algorithm with
time complexity O(nc^2)" (Section IV-C).  This module implements exactly
that heuristic for open paths starting from the RV's entry point.

The per-step "nearest unvisited city" pick is a masked argmin kernel
(:func:`repro.core.kernels.masked_argmin`), and the city/city legs come
out of the shared distance cache (measured once) instead of a fresh
``distances_from`` per step.  The cached rows hold the same
``np.hypot`` values a per-step measurement produces, so the tour is
bit-identical to the scalar heuristic (the test oracle in
``tests/oracles.py``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..geometry.points import as_points

__all__ = ["nearest_neighbor_order"]


def nearest_neighbor_order(
    points: np.ndarray,
    start: Optional[np.ndarray] = None,
) -> List[int]:
    """Visit order produced by the nearest-neighbour heuristic.

    Args:
        points: ``(n, 2)`` cities to visit.
        start: optional external starting position (e.g. the RV's
            current location).  When given, the first city is the one
            nearest ``start``; otherwise city 0 starts the tour.

    Returns:
        A permutation of ``range(n)`` as a Python list.  Ties resolve to
        the lowest index, keeping the heuristic deterministic.
    """
    # Imported lazily: repro.core pulls this module in at package-init
    # time (requests -> nearest_neighbor), so a module-level import of
    # core.kernels here would be circular.
    from ..core import kernels

    points = as_points(points)
    n = len(points)
    if n == 0:
        return []
    cache = kernels.distance_cache_for(points)
    remaining = np.ones(n, dtype=bool)
    if start is not None:
        current = kernels.masked_argmin(cache.from_point(start), remaining)
    else:
        current = 0
    order = [current]
    remaining[current] = False
    for _ in range(n - 1):
        current = kernels.masked_argmin(cache.row(current), remaining)
        order.append(current)
        remaining[current] = False
    return order
