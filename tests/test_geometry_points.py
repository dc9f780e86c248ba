"""Unit tests for repro.geometry.points."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import oracles
from repro.core.kernels import masked_argmin
from repro.geometry.points import (
    as_points,
    distance,
    distances_from,
    neighbors_within,
    pairs_within,
    pairwise_distances,
)
from repro.tsp.tour import leg_lengths


class TestAsPoints:
    def test_accepts_2d_array(self):
        pts = as_points([[0, 0], [1, 2]])
        assert pts.shape == (2, 2)
        assert pts.dtype == np.float64

    def test_promotes_single_point(self):
        pts = as_points([3.0, 4.0])
        assert pts.shape == (1, 2)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            as_points([[1.0, 2.0, 3.0]])

    def test_rejects_bad_single_point(self):
        with pytest.raises(ValueError):
            as_points([1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_points([[np.nan, 0.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_points([[np.inf, 0.0]])

    def test_empty_is_fine(self):
        pts = as_points(np.empty((0, 2)))
        assert pts.shape == (0, 2)


# Finite coordinates whose differences do not overflow, signed zeros
# and subnormals included.
_coord = st.floats(-1e150, 1e150) | st.sampled_from([0.0, -0.0, 5e-324, 1e-300])


class TestDistance:
    def test_pythagorean(self):
        assert distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_zero(self):
        assert distance([1.5, 2.5], [1.5, 2.5]) == 0.0

    def test_symmetry(self):
        a, b = [1.0, 7.0], [-2.0, 3.0]
        assert distance(a, b) == pytest.approx(distance(b, a))

    @given(
        st.lists(_coord, min_size=4, max_size=4),
        st.sampled_from(["array", "pair"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_converting_form(self, xy, form):
        """Indexing the coordinates directly measures the same
        ``np.hypot`` bits as converting both points first."""
        a, b = xy[:2], xy[2:]
        if form == "array":
            a, b = np.array(a), np.array(b)
        got = distance(a, b)
        want = oracles.distance(a, b)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestDistancesFrom:
    def test_matches_scalar(self, square_points):
        origin = np.array([0.25, 0.25])
        d = distances_from(origin, square_points)
        for i, p in enumerate(square_points):
            assert d[i] == pytest.approx(distance(origin, p))

    def test_empty(self):
        d = distances_from([0, 0], np.empty((0, 2)))
        assert d.shape == (0,)


class TestPairwiseDistances:
    def test_self_matrix_diagonal_zero(self, square_points):
        m = pairwise_distances(square_points)
        assert np.allclose(np.diag(m), 0.0)

    def test_symmetric(self, square_points):
        m = pairwise_distances(square_points)
        assert np.allclose(m, m.T)

    def test_cross_matrix_shape(self, square_points):
        b = np.array([[0.0, 0.0]])
        m = pairwise_distances(square_points, b)
        assert m.shape == (5, 1)

    def test_values(self):
        m = pairwise_distances([[0, 0]], [[3, 4]])
        assert m[0, 0] == pytest.approx(5.0)


class TestPairsWithin:
    def test_finds_close_pairs(self):
        pts = np.array([[0, 0], [0.5, 0], [10, 10]])
        pairs = pairs_within(pts, 1.0)
        assert pairs.shape == (1, 2)
        assert set(pairs[0]) == {0, 1}

    def test_radius_zero_only_coincident(self):
        pts = np.array([[0, 0], [0, 0], [1, 1]])
        pairs = pairs_within(pts, 0.0)
        assert len(pairs) == 1

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            pairs_within(np.zeros((3, 2)), -1.0)

    def test_single_point_no_pairs(self):
        assert len(pairs_within(np.zeros((1, 2)), 5.0)) == 0

    def test_matches_bruteforce(self, rng):
        pts = rng.uniform(0, 10, size=(40, 2))
        pairs = {tuple(sorted(p)) for p in pairs_within(pts, 2.0)}
        brute = set()
        for i in range(40):
            for j in range(i + 1, 40):
                if np.hypot(*(pts[i] - pts[j])) <= 2.0:
                    brute.add((i, j))
        assert pairs == brute


class TestNeighborsWithin:
    def test_basic(self):
        centers = np.array([[0.0, 0.0]])
        pts = np.array([[0.5, 0], [2.0, 0], [0, 0.9]])
        (hits,) = neighbors_within(centers, pts, 1.0)
        assert hits.tolist() == [0, 2]

    def test_empty_points(self):
        res = neighbors_within(np.zeros((2, 2)), np.empty((0, 2)), 1.0)
        assert len(res) == 2
        assert all(len(h) == 0 for h in res)

    def test_sorted_output(self, rng):
        centers = rng.uniform(0, 5, size=(3, 2))
        pts = rng.uniform(0, 5, size=(50, 2))
        for h in neighbors_within(centers, pts, 2.5):
            assert list(h) == sorted(h)


def path_length(pts):
    """A polyline's length as the planners sum it: its legs."""
    return float(leg_lengths(as_points(pts)).sum())


def nearest_index(origin, pts):
    """The nearest row as the planners pick it: the first minimum of
    the distances (``None`` for no rows)."""
    return masked_argmin(distances_from(origin, pts))


class TestPathLength:
    def test_straight_line(self):
        assert path_length([[0, 0], [3, 4]]) == pytest.approx(5.0)

    def test_l_shape(self):
        assert path_length([[0, 0], [1, 0], [1, 1]]) == pytest.approx(2.0)

    def test_single_point(self):
        assert path_length([[2, 2]]) == 0.0

    def test_empty(self):
        assert path_length(np.empty((0, 2))) == 0.0


class TestNearestIndex:
    def test_picks_closest(self, square_points):
        assert nearest_index([0.45, 0.55], square_points) == 4

    def test_tie_lowest_index(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert nearest_index([0.0, 0.0], pts) == 0


def _tree_pairs(pts, radius):
    """``cKDTree.query_pairs`` in lexicographic order (test-only oracle)."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    if len(pts) < 2:
        return np.empty((0, 2), dtype=np.intp)
    p = cKDTree(pts).query_pairs(r=radius, output_type="ndarray")
    return p[np.lexsort((p[:, 1], p[:, 0]))]


def _tree_neighbors(centers, pts, radius):
    """``cKDTree.query_ball_point`` with sorted hit lists (oracle)."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    if len(pts) == 0:
        return [[] for _ in centers]
    if len(centers) == 0:
        return []
    return [sorted(h) for h in cKDTree(pts).query_ball_point(centers, r=radius)]


def _assert_matches_tree(pts, radius, centers):
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    got = pairs_within(pts, radius)
    want = _tree_pairs(pts, radius)
    assert got.dtype == np.intp and got.shape == want.shape
    assert np.array_equal(got, want)  # same set, lexicographic order
    assert np.all(got[:, 0] < got[:, 1])
    hits = neighbors_within(centers, pts, radius)
    assert [h.tolist() for h in hits] == _tree_neighbors(centers, pts, radius)


coords = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
point_lists = st.lists(st.tuples(coords, coords), min_size=0, max_size=60)
radii = st.one_of(st.just(0.0), st.floats(0.0, 30.0, allow_nan=False))
lattice = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=0, max_size=60
)


class TestCellListMatchesKdtree:
    """The cell-list radius search agrees with ``scipy``'s k-d tree."""

    @given(point_lists, radii, point_lists)
    @settings(max_examples=150, deadline=None)
    def test_random_points(self, pts, radius, centers):
        _assert_matches_tree(pts, radius, centers)

    @given(point_lists, st.lists(st.integers(0, 59), max_size=60), radii)
    @settings(max_examples=100, deadline=None)
    # Two points 3e-254 apart: their squared distance underflows to 0,
    # so the pair passes a zero radius although far more than a cell of
    # side ``extent / 2**20`` apart.
    @example(base=[(0.0, 0.0), (0.0, 2.807921128797871e-254)], picks=[0, 1], radius=0.0)
    def test_duplicate_points(self, base, picks, radius):
        base = base or [(0.0, 0.0)]
        pts = [base[k % len(base)] for k in picks]
        _assert_matches_tree(pts, radius, base)

    @given(lattice, st.sampled_from([0.0, 1.0, 5.0, 10.0]), lattice)
    @settings(max_examples=100, deadline=None)
    def test_integer_points_at_exact_radius(self, pts, radius, centers):
        # On an integer lattice many pairs sit exactly at 5 (3-4-5) or
        # 10 (6-8-10): the ``dist <= radius`` boundary is exercised.
        _assert_matches_tree(pts, radius, centers)

    def test_three_four_five_boundary(self):
        pts = np.array([[0, 0], [3, 4], [6, 8], [-3, 4]], dtype=float)
        _assert_matches_tree(pts, 5.0, pts)
        assert pairs_within(pts, 5.0).tolist() == [[0, 1], [0, 3], [1, 2]]
        assert neighbors_within([[0.0, 0.0]], pts, 5.0)[0].tolist() == [0, 1, 3]

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("radius", [0.0, 1.0, 100.0])
    def test_tiny_inputs(self, n, radius):
        pts = np.random.default_rng(n).uniform(0, 2, size=(n, 2))
        _assert_matches_tree(pts, radius, pts)
        _assert_matches_tree(pts, radius, np.empty((0, 2)))

    def test_radius_zero_pairs_only_coincident(self):
        pts = np.array([[1, 1], [0, 0], [1, 1], [2, 2], [1, 1]], dtype=float)
        assert pairs_within(pts, 0.0).tolist() == [[0, 2], [0, 4], [2, 4]]
        _assert_matches_tree(pts, 0.0, pts)

    @given(st.integers(2, 300), st.floats(0.5, 3.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_dense_cluster(self, n, radius, seed):
        # Every point falls in one or two cells: long same-cell runs.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, radius, size=(n, 2))
        centers = rng.uniform(-radius, 2 * radius, size=(8, 2))
        _assert_matches_tree(pts, radius, centers)

    def test_tiny_radius_over_wide_spread(self):
        # The cell side is floored at a fraction of the spread, so keys
        # stay inside int64 even when the radius is minute.
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1e9, 1e9, size=(200, 2))
        pts[50] = pts[7]
        _assert_matches_tree(pts, 1e-12, pts[:20])
        assert pairs_within(pts, 1e-12).tolist() == [[7, 50]]

    def test_centers_far_outside_the_points(self):
        pts = np.random.default_rng(4).uniform(0, 10, size=(50, 2))
        centers = np.array([[-1e6, 5.0], [5.0, 1e6], [1e6, -1e6], [5.0, 5.0]])
        _assert_matches_tree(pts, 4.0, centers)
