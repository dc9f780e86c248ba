"""Planar geometry substrate: points, the sensing field, coverage."""

from .coverage import covered_fraction_grid, detection_matrix, detectors_of_targets
from .field import Field, hexagon_covering_bound, minimum_sensors_eq1
from .points import (
    as_points,
    distance,
    distances_from,
    neighbors_within,
    pairs_within,
    pairwise_distances,
)

__all__ = [
    "Field",
    "as_points",
    "covered_fraction_grid",
    "detection_matrix",
    "detectors_of_targets",
    "distance",
    "distances_from",
    "hexagon_covering_bound",
    "minimum_sensors_eq1",
    "neighbors_within",
    "pairs_within",
    "pairwise_distances",
]
