"""The vectorized scheduling kernels (repro.core.kernels).

Three layers of guarantees:

* each kernel is **bit-identical** to its scalar loop in
  ``oracles.py`` (property-based, random inputs);
* the :class:`DistanceCache` returns the same measurements as direct
  geometry calls and memoizes its rows;
* end to end, every registered scheduler produces the same plans with
  the kernels and with the oracle loops patched in, and the 2-opt pass
  replays the exact scalar first-improvement move sequence.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.kmeans import kmeans
from repro.core import kernels
from repro.core.insertion import build_insertion_sequence
from repro.core.requests import RechargeNodeList, RechargeRequest, aggregate_by_cluster
from repro.core.scheduling import RVView
from repro.geometry.points import distances_from, pairwise_distances
from repro.registry import SCHEDULERS
from repro.tsp.tour import leg_lengths, open_tour_length, validate_tour
from repro.tsp.nearest_neighbor import nearest_neighbor_from
from repro.tsp.two_opt import two_opt

import oracles

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def points_strategy(min_n=1, max_n=14):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_n, max_n), st.just(2)),
        elements=coords,
    )


# ----------------------------------------------------------------------
# distance cache
# ----------------------------------------------------------------------


class TestDistanceCache:
    def test_pairwise_matches_direct(self, rng):
        pts = rng.uniform(0, 50, size=(12, 2))
        cache = kernels.DistanceCache(pts)
        assert np.array_equal(cache.pairwise, pairwise_distances(pts))

    def test_row_without_matrix_matches_direct(self, rng):
        pts = rng.uniform(0, 50, size=(9, 2))
        cache = kernels.DistanceCache(pts)
        row = cache.row(3)
        assert cache._pairwise is None  # single row must not build the matrix
        assert np.array_equal(row, distances_from(pts[3], pts))
        assert cache.row(3) is row  # memoized

    def test_row_slices_existing_matrix(self, rng):
        pts = rng.uniform(0, 50, size=(7, 2))
        cache = kernels.DistanceCache(pts)
        _ = cache.pairwise
        assert np.array_equal(cache.row(2), pairwise_distances(pts)[2])

    def test_from_point_memoizes_per_origin(self, rng):
        pts = rng.uniform(0, 50, size=(8, 2))
        cache = kernels.DistanceCache(pts)
        origin = np.array([1.0, 2.0])
        first = cache.from_point(origin)
        assert np.array_equal(first, distances_from(origin, pts))
        # An equal-valued but distinct array hits the same memo entry.
        assert cache.from_point(np.array([1.0, 2.0])) is first


# ----------------------------------------------------------------------
# per-kernel vec == ref (property-based)
# ----------------------------------------------------------------------


demand_arrays = st.integers(1, 20).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=st.floats(0, 500, allow_nan=False)),
        arrays(np.float64, n, elements=st.floats(0, 200, allow_nan=False)),
    )
)


class TestKernelEquivalence:
    @given(demand_arrays, st.floats(0, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_profit_vector(self, dd, em):
        demands, dists = dd
        vec = kernels.profit_vector(demands, dists, em)
        ref = oracles.profit_vector(demands, dists, em)
        assert np.array_equal(vec, ref)

    @given(demand_arrays, st.floats(0, 10, allow_nan=False), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_greedy_pick_with_mask(self, dd, em, pyrand):
        demands, dists = dd
        mask = np.array([pyrand.random() < 0.7 for _ in demands])
        vec = kernels.greedy_pick(demands, dists, em, mask=mask)
        ref = oracles.greedy_pick(demands, dists, em, mask=mask)
        assert vec == ref
        if not mask.any():
            assert vec is None

    @given(demand_arrays)
    @settings(max_examples=50, deadline=None)
    def test_masked_argmax_argmin(self, dd):
        values, _ = dd
        mask = np.ones(len(values), dtype=bool)
        vmax = kernels.masked_argmax(values, mask)
        rmax = oracles.masked_argmax(values, mask)
        assert vmax == rmax == int(np.argmax(values))
        vmin = kernels.masked_argmin(values, mask)
        rmin = oracles.masked_argmin(values, mask)
        assert vmin == rmin == int(np.argmin(values))

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_masked_argmax_2d(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-10, 10, size=(rows, cols))
        mask = rng.random((rows, cols)) < 0.6
        vec = kernels.masked_argmax_2d(values, mask)
        ref = oracles.masked_argmax_2d(values, mask)
        assert vec == ref
        if vec is not None:
            assert mask[vec]

    @given(points_strategy(min_n=2, max_n=12), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_kmeans_assign(self, pts, seed):
        """K-means' array assignment step against the scalar loop: at a
        converged restart's fixed point every label is the squared-nearest
        centroid, ties to the lowest index."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, len(pts)))  # k < n: the Lloyd loop runs
        result = kmeans(pts, k, rng=rng)
        if result.converged:
            assert np.array_equal(result.labels, oracles.kmeans_assign(pts, result.centroids))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 14))
    @settings(max_examples=50, deadline=None)
    def test_insertion_eval(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 80, size=(n, 2))
        demands = rng.uniform(1, 100, size=n)
        rv = rng.uniform(0, 80, size=2)
        # The stop/stop matrix with the RV's distances as row n.
        dist = np.concatenate((pairwise_distances(pts), distances_from(rv, pts)[None, :]))
        split = int(rng.integers(1, n + 1))
        route = [int(i) for i in rng.permutation(n)[:split]]
        remaining = np.array([i for i in range(n) if i not in route], dtype=np.intp)
        if not len(remaining):
            return
        waypoints = np.array([n] + route, dtype=np.intp)
        args = (dist, waypoints, remaining, demands[remaining], demands[remaining] / 0.8, 5.6)
        vec = kernels.insertion_eval(*args)
        ref = oracles.insertion_eval(*args)
        assert np.array_equal(vec[0], ref[0])
        assert np.array_equal(vec[1], ref[1])
        assert vec[0].shape == (len(route), len(remaining))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_uplink_etx_vector(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 60, size=(n + 1, 2))  # +1: a base-station row
        parent = rng.integers(-1, n + 1, size=n + 1)
        parent[parent == np.arange(n + 1)] = -1  # no self-loops
        vec = kernels.uplink_etx_vector(pts, parent, n, 12.0)
        ref = oracles.uplink_etx_vector(pts, parent, n, 12.0)
        assert np.array_equal(vec, ref)
        assert np.all(vec >= 1.0)

    @given(points_strategy(min_n=1, max_n=20), st.booleans(), coords, coords)
    @settings(max_examples=50, deadline=None)
    def test_nearest_neighbor_order(self, pts, with_start, x, y):
        start = np.array([x, y]) if with_start else None
        assert nearest_neighbor_from(pts, start) == oracles.nearest_neighbor_order(
            pts, start=start
        )


# ----------------------------------------------------------------------
# 2-opt: vectorized sweep replays the scalar move sequence
# ----------------------------------------------------------------------


class TestTwoOptEquivalence:
    @given(points_strategy(min_n=4, max_n=30), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_replays_reference_moves(self, pts, seed):
        rng = np.random.default_rng(seed)
        order = [int(i) for i in rng.permutation(len(pts))]
        ref = oracles.two_opt(pts, list(order), 50)
        vec = two_opt(pts, list(order), 50)
        assert vec == ref  # identical order, not merely identical length

    @given(points_strategy(min_n=4, max_n=25), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_never_lengthens_and_permutes(self, pts, seed):
        rng = np.random.default_rng(seed)
        order = [int(i) for i in rng.permutation(len(pts))]
        before = open_tour_length(pts, order)
        improved = two_opt(pts, list(order))
        validate_tour(improved, len(pts))
        assert improved[0] == order[0]
        assert improved[-1] == order[-1]
        assert open_tour_length(pts, improved) <= before + 1e-9

    def test_leg_lengths_matches_tour_length(self, rng):
        pts = rng.uniform(0, 40, size=(9, 2))
        order = list(range(9))
        assert float(leg_lengths(pts[order]).sum()) == open_tour_length(pts, order)


# ----------------------------------------------------------------------
# end to end: every registered scheduler, vec == ref
# ----------------------------------------------------------------------


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    pts = rng.uniform(0, 80, size=(n, 2))
    demands = rng.uniform(10, 150, size=n)
    clusters = rng.integers(-1, 3, size=n)
    requests = RechargeNodeList(
        RechargeRequest(i, pts[i], float(demands[i]), int(clusters[i]))
        for i in range(n)
    )
    views = [
        RVView(
            rv_id=j,
            position=rng.uniform(0, 80, size=2),
            budget_j=float(rng.uniform(2000, 20000)),
            em_j_per_m=5.6,
            charge_efficiency=0.8,
            depot=np.array([40.0, 40.0]),
        )
        for j in range(int(rng.integers(1, 4)))
    ]
    return requests, views


def _plan_fingerprint(plans):
    return {
        rv_id: (
            plan.node_ids,
            plan.waypoints.tobytes(),
            plan.travel_m,
            plan.demand_j,
            plan.profit_j,
        )
        for rv_id, plan in plans.items()
    }


class TestUplinkEtxEndToEnd:
    def test_state_uplink_etx_bit_identical(self):
        """``SimulationState.from_config`` under ETX routing yields a
        bit-identical ``uplink_etx`` vector with the kernel and with the
        scalar oracle loop."""
        from repro.sim.components.state import SimulationState
        from repro.sim.config import SimulationConfig

        cfg = SimulationConfig(
            n_sensors=40,
            side_length_m=60.0,
            comm_range_m=12.0,
            routing_metric="etx",
            seed=2024,
        )
        etx = {}
        for reference in (False, True):
            with oracles.reference_kernels() if reference else contextlib.nullcontext():
                etx[reference] = SimulationState.from_config(cfg).uplink_etx
        assert np.array_equal(etx[False], etx[True])
        assert np.all(etx[False] >= 1.0)
        assert np.any(etx[False] > 1.0)  # grey-zone links exist at this density


class TestInsertionOrderAgainstScalarLoop:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_same_sequence(self, seed):
        """Fixed candidate columns with the inserted ones masked out
        pick what popping from a compacted remainder picks."""
        requests, views = _random_instance(seed)
        stops = aggregate_by_cluster(requests)
        rv = views[0]
        args = (stops, rv.position, rv.budget_j, rv.em_j_per_m, rv.charge_efficiency)
        assert build_insertion_sequence(*args) == oracles.insertion_order(*args)


class TestSchedulersVectorizedVsReference:
    @pytest.mark.parametrize("name", sorted(SCHEDULERS.names()))
    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_assign_identical(self, name, seed):
        fingerprints = {}
        for reference in (False, True):
            scheduler = SCHEDULERS.build(name, fleet_size=3)
            observe = getattr(scheduler, "observe_time", None)
            if observe is not None:
                observe(0.0)
            requests, views = _random_instance(seed)
            with oracles.reference_kernels() if reference else contextlib.nullcontext():
                plans = scheduler.assign(requests, views, np.random.default_rng(7))
            fingerprints[reference] = _plan_fingerprint(plans)
        assert fingerprints[False] == fingerprints[True]
