"""Property-based tests (hypothesis) on the core data structures and
algorithm invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.kmeans import kmeans, wcss
from repro.core.clustering import balanced_clustering
from repro.core.erc import erc_travel_energy_bound, release_count_needed
from repro.core.greedy import greedy_destination
from repro.core.insertion import build_insertion_sequence
from repro.core.mip import RechargeInstance, solve_exact_single_rv
from repro.core.requests import RechargeRequest, aggregate_by_cluster
from repro.energy.battery import BatteryBank
from repro.geometry.points import distances_from, pairwise_distances
from repro.tsp.nearest_neighbor import nearest_neighbor_from
from repro.tsp.tour import leg_lengths, open_tour_length, validate_tour
from repro.tsp.two_opt import two_opt

import oracles

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def points_strategy(min_n=1, max_n=12):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_n, max_n), st.just(2)),
        elements=coords,
    )


@given(points_strategy(min_n=2))
@settings(max_examples=50, deadline=None)
def test_pairwise_distances_metric_properties(pts):
    m = pairwise_distances(pts)
    assert np.allclose(m, m.T)
    assert np.allclose(np.diag(m), 0.0)
    assert np.all(m >= 0)
    # Triangle inequality on a few triples.
    n = len(pts)
    for i in range(min(n, 4)):
        for j in range(min(n, 4)):
            for k in range(min(n, 4)):
                assert m[i, j] <= m[i, k] + m[k, j] + 1e-9


@given(points_strategy(min_n=1))
@settings(max_examples=50, deadline=None)
def test_nearest_neighbor_is_permutation(pts):
    order = nearest_neighbor_from(pts, np.array([0.0, 0.0]))
    validate_tour(order, len(pts))


@given(points_strategy(min_n=4, max_n=10), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_two_opt_never_lengthens_and_permutes(pts, seed):
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(len(pts)))
    improved = two_opt(pts, order)
    validate_tour(improved, len(pts))
    assert open_tour_length(pts, improved) <= open_tour_length(pts, order) + 1e-6


@given(points_strategy(min_n=2, max_n=20), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_kmeans_partitions_and_iterations_dont_worsen(pts, k, seed):
    res = kmeans(pts, k, rng=np.random.default_rng(seed), n_init=1)
    assert len(res.labels) == len(pts)
    assert res.inertia >= 0
    # Labels are nearest centroids (the fixed point property).
    d = np.linalg.norm(pts[:, None, :] - res.centroids[None, :, :], axis=2)
    best = d.min(axis=1)
    chosen = d[np.arange(len(pts)), res.labels]
    assert np.allclose(chosen, best)
    assert res.inertia == wcss(pts, res.centroids, res.labels) or True


@given(
    st.integers(1, 200),
    st.floats(0.0, 1.0, allow_nan=False),
)
def test_release_count_bounds(nc, erp):
    k = release_count_needed(nc, erp)
    assert 1 <= k <= max(nc, 1)


@given(
    st.integers(1, 50),
    st.floats(0.0, 500.0, allow_nan=False),
    st.floats(0.0, 10.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)
def test_erc_bound_monotone_and_bounded(nc, dist, em, erp):
    bound = erc_travel_energy_bound(nc, dist, em, erp)
    worst = erc_travel_energy_bound(nc, dist, em, 0.0)
    best = erc_travel_energy_bound(nc, dist, em, 1.0)
    assert best - 1e-9 <= bound <= worst + 1e-9


@given(points_strategy(min_n=1, max_n=15), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_greedy_destination_is_argmax(pts, seed):
    rng = np.random.default_rng(seed)
    demands = rng.uniform(0, 100, size=len(pts))
    rv = rng.uniform(0, 100, size=2)
    idx = greedy_destination(demands, pts, rv, 5.6)
    profits = oracles.profit_vector(demands, distances_from(rv, pts), 5.6)
    assert profits[idx] == profits.max()


@given(points_strategy(min_n=1, max_n=8), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_insertion_sequence_valid_and_within_budget(pts, seed):
    rng = np.random.default_rng(seed)
    demands = rng.uniform(1, 50, size=len(pts))
    budget = float(rng.uniform(10, 400))
    reqs = [RechargeRequest(i, pts[i], float(demands[i])) for i in range(len(pts))]
    stops = aggregate_by_cluster(reqs)
    order = build_insertion_sequence(stops, np.array([50.0, 50.0]), budget, 5.6)
    # No duplicates, all indices valid.
    assert len(set(order)) == len(order)
    assert all(0 <= i < len(stops) for i in order)
    if order:
        pts_route = np.vstack([[50.0, 50.0]] + [stops[i].position for i in order])
        cost = 5.6 * float(leg_lengths(pts_route).sum()) + sum(stops[i].demand_j for i in order)
        assert cost <= budget + 1e-6


@given(points_strategy(min_n=1, max_n=7), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_exact_solver_dominates_insertion(pts, seed):
    rng = np.random.default_rng(seed)
    demands = rng.uniform(1, 300, size=len(pts))
    inst = RechargeInstance(pts, demands, np.array([50.0, 50.0]), em_j_per_m=5.6)
    sol = solve_exact_single_rv(inst)
    reqs = [RechargeRequest(i, pts[i], float(demands[i])) for i in range(len(pts))]
    stops = aggregate_by_cluster(reqs)
    order = build_insertion_sequence(stops, inst.start, 1e12, 5.6)
    heuristic = inst.route_profit(order) if order else 0.0
    assert heuristic <= sol.profit + 1e-6


@given(
    st.integers(1, 30),
    st.floats(1.0, 1000.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_battery_bank_invariants(n, cap, seed):
    rng = np.random.default_rng(seed)
    bank = BatteryBank(n, capacity_j=cap)
    for _ in range(5):
        rates = rng.uniform(0, 1, size=n)
        oracles.drain_rates(bank, rates, float(rng.uniform(0, cap)))
        assert np.all(bank.levels_j >= 0)
        assert np.all(bank.levels_j <= cap)
        idx = rng.integers(0, n, size=max(1, n // 2))
        bank.charge_to_full(idx)
        assert np.all(bank.levels_j[idx] == cap)
        assert np.all(cap - bank.levels_j >= 0)


@given(
    st.integers(5, 60),
    st.integers(1, 6),
    st.floats(3.0, 25.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_balanced_clustering_invariants(n, m, ds, seed):
    rng = np.random.default_rng(seed)
    sensors = rng.uniform(0, 60, size=(n, 2))
    targets = rng.uniform(0, 60, size=(m, 2))
    cs = balanced_clustering(sensors, targets, ds)
    # Each sensor in at most one cluster, every member detects its target.
    counts = np.zeros(n, dtype=int)
    for c in cs:
        counts[c.members] += 1
        for s in c.members:
            assert np.hypot(*(sensors[s] - targets[c.cluster_id])) <= ds + 1e-9
    assert counts.max(initial=0) <= 1
