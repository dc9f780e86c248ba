"""Tour utilities shared by the TSP heuristics and the schedulers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..geometry.points import as_points

__all__ = ["leg_lengths", "tour_length", "open_tour_length", "validate_tour"]


def leg_lengths(waypoints: np.ndarray) -> np.ndarray:
    """Length of each consecutive leg of a ``(k, 2)`` polyline.

    The one vectorized measurement every route-length consumer (tour
    utilities, route expansion, planned-route accounting) shares, so
    they all sum the identical per-leg ``np.hypot`` values.
    """
    seg = waypoints[1:] - waypoints[:-1]  # np.diff's subtraction, without its wrapper
    return np.hypot(seg[:, 0], seg[:, 1])


def open_tour_length(points: np.ndarray, order: Sequence[int]) -> float:
    """Length of the open path visiting ``points[order]`` in sequence."""
    points = as_points(points)
    order = np.asarray(order, dtype=np.intp)
    if order.size < 2:
        return 0.0
    return float(leg_lengths(points[order]).sum())


def tour_length(points: np.ndarray, order: Sequence[int]) -> float:
    """Length of the closed tour through ``points[order]`` (returns to start)."""
    points = as_points(points)
    order = np.asarray(order, dtype=np.intp)
    if order.size < 2:
        return 0.0
    closed = np.concatenate([order, order[:1]])
    return open_tour_length(points, closed)


def validate_tour(order: Sequence[int], n: int) -> None:
    """Check that ``order`` is a permutation of ``range(n)``.

    Raises:
        ValueError: if the tour skips or repeats a city.
    """
    order = np.asarray(order, dtype=np.intp)
    if order.size != n or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"tour {order.tolist()} is not a permutation of range({n})")
