"""TSP toolkit: tour utilities, nearest-neighbour, 2-opt.

The 2-opt post-pass lives in :mod:`repro.tsp.two_opt`
(``from repro.tsp.two_opt import two_opt``); it is not re-exported
here, so the planners that import this package for its tours do not
load it.
"""

from .nearest_neighbor import nearest_neighbor_from
from .tour import open_tour_length, tour_length, validate_tour

__all__ = [
    "nearest_neighbor_from",
    "open_tour_length",
    "tour_length",
    "validate_tour",
]
