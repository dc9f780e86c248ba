"""Unit tests for the TSP toolkit."""

import itertools

import numpy as np
import pytest

from repro.tsp.nearest_neighbor import nearest_neighbor_from
from repro.tsp.tour import open_tour_length, tour_length, validate_tour
from repro.tsp.two_opt import two_opt


class TestTourLength:
    def test_open_square(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert open_tour_length(pts, [0, 1, 2, 3]) == pytest.approx(3.0)

    def test_closed_square(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert tour_length(pts, [0, 1, 2, 3]) == pytest.approx(4.0)

    def test_short_tours(self):
        pts = np.array([[0, 0], [1, 0]], dtype=float)
        assert open_tour_length(pts, [0]) == 0.0
        assert tour_length(pts, [1]) == 0.0

    def test_validate_accepts_permutation(self):
        validate_tour([2, 0, 1], 3)

    def test_validate_rejects_repeat(self):
        with pytest.raises(ValueError):
            validate_tour([0, 0, 1], 3)

    def test_validate_rejects_short(self):
        with pytest.raises(ValueError):
            validate_tour([0, 1], 3)


class TestNearestNeighbor:
    def test_line_visits_in_order(self):
        pts = np.column_stack([np.arange(5) * 1.0, np.zeros(5)])
        assert nearest_neighbor_from(pts, np.array([-1.0, 0.0])) == [0, 1, 2, 3, 4]

    def test_no_start_begins_at_zero(self):
        pts = np.array([[0, 0], [5, 0], [1, 0]], dtype=float)
        order = nearest_neighbor_from(pts, None)
        assert order[0] == 0
        assert order == [0, 2, 1]

    def test_is_permutation(self, rng):
        pts = rng.uniform(0, 10, size=(20, 2))
        order = nearest_neighbor_from(pts, np.zeros(2))
        validate_tour(order, 20)

    def test_empty(self):
        assert nearest_neighbor_from(np.empty((0, 2)), None) == []

    def test_single(self):
        assert nearest_neighbor_from(np.array([[1.0, 1.0]]), None) == [0]

    def test_within_factor_of_optimal_small(self, rng):
        """NN on 7 cities: never worse than 2x the optimal open path."""
        pts = rng.uniform(0, 10, size=(7, 2))
        start = np.array([0.0, 0.0])
        nn = nearest_neighbor_from(pts, start)
        nn_len = open_tour_length(np.vstack([start, pts]), [0] + [i + 1 for i in nn])
        best = min(
            open_tour_length(np.vstack([start, pts]), [0] + [i + 1 for i in perm])
            for perm in itertools.permutations(range(7))
        )
        assert nn_len <= 2.0 * best + 1e-9


class TestTwoOpt:
    def test_fixes_crossing(self):
        # Path 0 -> 2 -> 1 -> 3 along a line is longer than 0 -> 1 -> 2 -> 3.
        pts = np.column_stack([np.arange(4) * 1.0, np.zeros(4)])
        improved = two_opt(pts, [0, 2, 1, 3])
        assert improved == [0, 1, 2, 3]

    def test_never_lengthens(self, rng):
        pts = rng.uniform(0, 10, size=(15, 2))
        order = list(rng.permutation(15))
        before = open_tour_length(pts, order)
        after_order = two_opt(pts, order)
        after = open_tour_length(pts, after_order)
        assert after <= before + 1e-9

    def test_keeps_endpoints(self, rng):
        pts = rng.uniform(0, 10, size=(12, 2))
        order = list(range(12))
        improved = two_opt(pts, order)
        assert improved[0] == 0 and improved[-1] == 11

    def test_is_permutation(self, rng):
        pts = rng.uniform(0, 10, size=(10, 2))
        improved = two_opt(pts, list(rng.permutation(10)))
        validate_tour(improved, 10)

    def test_short_tours_unchanged(self):
        pts = np.zeros((3, 2))
        assert two_opt(pts, [2, 0, 1]) == [2, 0, 1]

    def test_does_not_mutate_input(self, rng):
        pts = rng.uniform(0, 10, size=(8, 2))
        order = [3, 1, 4, 0, 2, 5, 6, 7]
        original = list(order)
        two_opt(pts, order)
        assert order == original

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            two_opt(np.zeros((5, 2)), [0, 1, 2, 3, 4], max_rounds=0)
