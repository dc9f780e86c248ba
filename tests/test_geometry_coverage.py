"""Unit tests for repro.geometry.coverage."""

import numpy as np
import pytest

from repro.geometry.coverage import (
    covered_fraction_grid,
    detection_matrix,
    detectors_of_targets,
)


class TestDetectionMatrix:
    def test_basic(self):
        sensors = np.array([[0.0, 0.0], [10.0, 0.0]])
        targets = np.array([[1.0, 0.0], [9.0, 0.0]])
        m = detection_matrix(sensors, targets, 2.0)
        assert m.tolist() == [[True, False], [False, True]]

    def test_boundary_inclusive(self):
        m = detection_matrix([[0.0, 0.0]], [[3.0, 4.0]], 5.0)
        assert m[0, 0]

    def test_empty_inputs(self):
        assert detection_matrix(np.empty((0, 2)), [[0, 0]], 1.0).shape == (0, 1)
        assert detection_matrix([[0, 0]], np.empty((0, 2)), 1.0).shape == (1, 0)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            detection_matrix([[0, 0]], [[1, 1]], -1.0)

    def test_same_predicate_as_detectors_next_to_the_circle(self):
        """Sensors within a few ulps of the sensing circle: the matrix
        (which sets ``coverable``) and the candidate sets of Algorithm 1
        must call every one of them the same way."""
        rng = np.random.default_rng(0)
        r = 14.0
        theta = rng.uniform(0.0, 2.0 * np.pi, 2000)
        rad = r * (1.0 + rng.uniform(-4e-16, 4e-16, 2000))
        target = np.array([[50.0, 50.0]])
        sensors = target + np.column_stack([rad * np.cos(theta), rad * np.sin(theta)])
        m = detection_matrix(sensors, target, r)
        det = detectors_of_targets(sensors, target, r)
        assert 0 < len(det[0]) < len(sensors)  # both sides of the circle occur
        assert np.flatnonzero(m[:, 0]).tolist() == det[0].tolist()


class TestDetectorsOfTargets:
    def test_matches_matrix(self, rng):
        sensors = rng.uniform(0, 50, size=(60, 2))
        targets = rng.uniform(0, 50, size=(7, 2))
        m = detection_matrix(sensors, targets, 8.0)
        det = detectors_of_targets(sensors, targets, 8.0)
        for j in range(7):
            assert det[j].tolist() == np.flatnonzero(m[:, j]).tolist()


class TestCoveredFraction:
    def test_zero_without_sensors(self):
        assert covered_fraction_grid(np.empty((0, 2)), 10.0, 2.0) == 0.0

    def test_full_with_huge_range(self):
        assert covered_fraction_grid([[5.0, 5.0]], 10.0, 100.0) == 1.0

    def test_partial(self):
        # One disk of radius 5 centered in a 10x10 field covers ~ pi*25/100.
        frac = covered_fraction_grid([[5.0, 5.0]], 10.0, 5.0, resolution=200)
        assert frac == pytest.approx(np.pi * 25 / 100, abs=0.01)

    def test_monotone_in_range(self):
        pts = [[2.0, 2.0], [8.0, 8.0]]
        f1 = covered_fraction_grid(pts, 10.0, 1.0)
        f2 = covered_fraction_grid(pts, 10.0, 3.0)
        assert f2 > f1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            covered_fraction_grid([[0, 0]], -1.0, 1.0)
        with pytest.raises(ValueError):
            covered_fraction_grid([[0, 0]], 1.0, 1.0, resolution=0)
