"""Coverage queries: which sensors see which targets, and how much of
the field the deployment covers.

The detection primitive (a target is seen by every sensor whose sensing
disk contains it) drives cluster formation; the grid coverage ratio is a
diagnostic used by the examples and the deployment tests.
"""

from __future__ import annotations

import numpy as np

from .points import _within, as_points, neighbors_within

__all__ = [
    "detection_matrix",
    "detectors_of_targets",
    "covered_fraction_grid",
]


def detection_matrix(sensors: np.ndarray, targets: np.ndarray, sensing_range: float) -> np.ndarray:
    """Boolean ``(n_sensors, n_targets)`` matrix: sensor i detects target j.

    This is the paper's indicator :math:`I_{ij}` *before* cluster
    assignment restricts each sensor to at most one target.  It applies
    the squared-length test of :func:`detectors_of_targets`, so the two
    agree on points next to the sensing circle.
    """
    sensors = as_points(sensors)
    targets = as_points(targets)
    if sensing_range < 0:
        raise ValueError("sensing_range must be non-negative")
    if len(sensors) == 0 or len(targets) == 0:
        return np.zeros((len(sensors), len(targets)), dtype=bool)
    return _within(
        sensors[:, None, 0], sensors[:, None, 1], targets[:, 0], targets[:, 1], sensing_range
    )


def detectors_of_targets(sensors: np.ndarray, targets: np.ndarray, sensing_range: float) -> list:
    """For every target, the sorted indices of sensors that detect it.

    The per-target candidate sets :math:`P(i)` of Algorithm 1, phase 1.
    A cell-list radius search (:func:`~repro.geometry.points.neighbors_within`)
    scans only the grid cells around each target, so rebuilding
    candidate sets at every target relocation stays cheap.
    """
    return neighbors_within(targets, sensors, sensing_range)


def covered_fraction_grid(
    sensors: np.ndarray,
    side_length: float,
    sensing_range: float,
    resolution: int = 100,
) -> float:
    """Fraction of the field within sensing range of some sensor.

    Evaluated on a ``resolution x resolution`` grid of cell centers — a
    standard Monte-Carlo-free estimate of area coverage used to sanity
    check Eq. (1) style deployment sizing.
    """
    sensors = as_points(sensors)
    if side_length <= 0:
        raise ValueError("side_length must be positive")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if len(sensors) == 0:
        return 0.0
    step = side_length / resolution
    coords = (np.arange(resolution) + 0.5) * step
    gx, gy = np.meshgrid(coords, coords, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    # Chunk the grid so the (cells x sensors) distance block stays small.
    covered = 0
    chunk = 4096
    for start in range(0, len(grid), chunk):
        block = grid[start : start + chunk]
        diff = block[:, None, :] - sensors[None, :, :]
        dist2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
        covered += int(np.count_nonzero(dist2.min(axis=1) <= sensing_range**2))
    return covered / len(grid)
