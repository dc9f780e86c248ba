"""Unit tests for the from-scratch K-means."""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from repro.cluster.kmeans import kmeans, wcss

# The module itself: the package re-exports the function under its name.
kmeans_mod = sys.modules["repro.cluster.kmeans"]


class TestKMeans:
    def test_two_obvious_blobs(self, rng):
        a = rng.normal([0, 0], 0.1, size=(20, 2))
        b = rng.normal([10, 10], 0.1, size=(20, 2))
        pts = np.vstack([a, b])
        res = kmeans(pts, 2, rng=rng)
        assert res.converged
        labels_a = set(res.labels[:20].tolist())
        labels_b = set(res.labels[20:].tolist())
        assert len(labels_a) == 1 and len(labels_b) == 1 and labels_a != labels_b

    def test_k_equal_n(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        res = kmeans(pts, 3)
        assert res.inertia == 0.0
        assert sorted(res.labels.tolist()) == [0, 1, 2]

    def test_k_greater_than_n_pads(self, rng):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        res = kmeans(pts, 5, rng=rng)
        assert res.centroids.shape == (5, 2)
        assert res.inertia == 0.0

    def test_k_one_centroid_is_mean(self, rng):
        pts = rng.uniform(0, 10, size=(30, 2))
        res = kmeans(pts, 1, rng=rng)
        assert np.allclose(res.centroids[0], pts.mean(axis=0))

    def test_groups_partition_everything(self, rng):
        pts = rng.uniform(0, 10, size=(40, 2))
        res = kmeans(pts, 4, rng=rng)
        all_idx = np.concatenate(res.groups())
        assert sorted(all_idx.tolist()) == list(range(40))

    def test_inertia_matches_wcss(self, rng):
        pts = rng.uniform(0, 10, size=(30, 2))
        res = kmeans(pts, 3, rng=rng)
        assert res.inertia == pytest.approx(wcss(pts, res.centroids, res.labels))

    def test_deterministic_default_rng(self, rng):
        pts = rng.uniform(0, 10, size=(25, 2))
        r1 = kmeans(pts, 3)
        r2 = kmeans(pts, 3)
        assert np.array_equal(r1.labels, r2.labels)

    def test_more_clusters_never_worse(self, rng):
        pts = rng.uniform(0, 10, size=(50, 2))
        i2 = kmeans(pts, 2, rng=np.random.default_rng(0), n_init=8).inertia
        i5 = kmeans(pts, 5, rng=np.random.default_rng(0), n_init=8).inertia
        assert i5 <= i2 + 1e-9

    def test_labels_are_nearest_centroid(self, rng):
        pts = rng.uniform(0, 10, size=(40, 2))
        res = kmeans(pts, 4, rng=rng)
        d = np.linalg.norm(pts[:, None, :] - res.centroids[None, :, :], axis=2)
        assert np.array_equal(res.labels, np.argmin(d, axis=1))

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 2)), 1)
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(pts, 0)
        with pytest.raises(ValueError):
            kmeans(pts, 1, max_iter=0)
        with pytest.raises(ValueError):
            kmeans(pts, 1, n_init=0)

    def test_duplicate_points(self):
        pts = np.zeros((10, 2))
        res = kmeans(pts, 2)
        assert res.inertia == 0.0


# ----------------------------------------------------------------------
# all restarts in one array pass == the serial Lloyd loop
# ----------------------------------------------------------------------


def assert_matches_serial(points, k, seed, **kwargs):
    """``kmeans`` and ``oracles.kmeans_serial`` agree bit for bit and
    leave their generators in the same state."""
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    got = kmeans(points, k, rng=rng_a, **kwargs)
    want = oracles.kmeans_serial(points, k, rng=rng_b, **kwargs)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.centroids.shape == want.centroids.shape
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.labels.dtype == want.labels.dtype == np.intp
    assert type(got.inertia) is float
    assert np.float64(got.inertia).tobytes() == np.float64(want.inertia).tobytes()
    assert got.n_iter == want.n_iter
    assert got.converged == want.converged
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    return got


# Free coordinates, a coarse grid (ties between centroids) and a few
# repeated values (duplicate points, clusters that lose every member).
_coord = st.one_of(
    st.floats(0.0, 1000.0),
    st.sampled_from([0.0, -0.0, 200.0, 400.0, 600.0]),
)


class TestAgainstSerialOracle:
    @given(
        pts=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)), elements=_coord),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        max_iter=st.sampled_from([1, 2, 3, 100]),
        n_init=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, pts, k, seed, max_iter, n_init):
        assert_matches_serial(pts, k, seed, max_iter=max_iter, n_init=n_init)

    def test_duplicate_points(self):
        pts = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]]), 4, axis=0)
        for seed in range(20):
            assert_matches_serial(pts, 3, seed)

    def test_empty_cluster_repair(self):
        # Forgy seeds on coincident points tie, so the higher-index
        # centroid loses every member and is re-seeded.
        pts = np.vstack([np.zeros((6, 2)), [[100.0, 0.0], [0.0, 100.0]]])
        with mock.patch.object(
            kmeans_mod, "_update_with_empty", wraps=kmeans_mod._update_with_empty
        ) as repair:
            for seed in range(20):
                assert_matches_serial(pts, 3, seed)
        assert repair.called

    def test_max_iter_exhausted(self, rng):
        pts = rng.uniform(0, 100, size=(40, 2))
        res = [assert_matches_serial(pts, 5, seed, max_iter=1) for seed in range(10)]
        assert not all(r.converged for r in res)
        assert all(r.n_iter == 1 for r in res)

    def test_k_one(self, rng):
        pts = rng.uniform(0, 100, size=(15, 2))
        assert assert_matches_serial(pts, 1, 3).converged

    @pytest.mark.parametrize("k", [4, 5, 9])
    def test_k_at_least_n(self, rng, k):
        pts = rng.uniform(0, 100, size=(4, 2))
        res = assert_matches_serial(pts, k, 7)
        assert res.centroids.shape == (k, 2)
