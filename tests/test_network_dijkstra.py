"""Unit tests for the from-scratch Dijkstra, cross-validated vs networkx."""

import networkx as nx
import numpy as np
import pytest

from oracles import to_networkx
from repro.network.dijkstra import shortest_paths
from repro.network.topology import Topology


class TestShortestPaths:
    def test_trivial_single_node(self):
        indptr = np.array([0, 0])
        dist, parent = shortest_paths(indptr, np.empty(0, dtype=np.intp), np.empty(0), 0)
        assert dist[0] == 0.0
        assert parent[0] == -1

    def test_chain(self):
        topo = Topology(np.column_stack([np.arange(4) * 1.0, np.zeros(4)]), comm_range=1.1)
        dist, parent = shortest_paths(topo.indptr, topo.indices, topo.weights, 0)
        assert np.allclose(dist, [0, 1, 2, 3])
        assert parent.tolist() == [-1, 0, 1, 2]

    def test_unreachable_is_inf(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        topo = Topology(pts, comm_range=1.0)
        dist, parent = shortest_paths(topo.indptr, topo.indices, topo.weights, 0)
        assert dist[1] == np.inf
        assert parent[1] == -1

    def test_source_out_of_range(self):
        indptr = np.array([0, 0])
        with pytest.raises(ValueError):
            shortest_paths(indptr, np.empty(0, dtype=np.intp), np.empty(0), 5)

    def test_negative_weight_rejected(self):
        indptr = np.array([0, 1, 2])
        indices = np.array([1, 0], dtype=np.intp)
        weights = np.array([-1.0, -1.0])
        with pytest.raises(ValueError):
            shortest_paths(indptr, indices, weights, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 40, size=(60, 2))
        topo = Topology(pts, comm_range=10.0, base_station=[20.0, 20.0])
        dist, parent = shortest_paths(topo.indptr, topo.indices, topo.weights, topo.base_index)
        g = to_networkx(topo)
        nx_dist = nx.single_source_dijkstra_path_length(g, topo.base_index)
        for v in range(len(topo)):
            if v in nx_dist:
                assert dist[v] == pytest.approx(nx_dist[v])
            else:
                assert dist[v] == np.inf

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_csgraph(self, seed):
        """Second independent oracle: scipy's C implementation on the
        same CSR arrays (no graph conversion in between)."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as sp_dijkstra

        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 40, size=(60, 2))
        topo = Topology(pts, comm_range=10.0, base_station=[20.0, 20.0])
        dist, parent = shortest_paths(topo.indptr, topo.indices, topo.weights, topo.base_index)
        n = len(topo)
        graph = csr_matrix((topo.weights, topo.indices, topo.indptr), shape=(n, n))
        sp_dist = sp_dijkstra(graph, directed=True, indices=topo.base_index)
        assert np.allclose(dist, sp_dist, equal_nan=True)

    def test_negative_check_not_fooled_by_cache(self):
        """Every call validates its own weights: a fresh negative array
        raises even after valid arrays of the same shape passed."""
        indptr = np.array([0, 1, 2])
        indices = np.array([1, 0], dtype=np.intp)
        good = np.array([1.0, 1.0])
        shortest_paths(indptr, indices, good, 0)
        shortest_paths(indptr, indices, good, 0)
        bad = np.array([-1.0, 1.0])
        with pytest.raises(ValueError):
            shortest_paths(indptr, indices, bad, 0)

    def test_nan_weight_rejected(self):
        """On the path 0-1-2 a NaN on arc 1-2 would fail every ``<``
        relaxation and report the connected vertex 2 unreachable."""
        indptr = np.array([0, 1, 3, 4])
        indices = np.array([1, 0, 2, 1], dtype=np.intp)
        weights = np.array([1.0, 1.0, np.nan, np.nan])
        with pytest.raises(ValueError, match="non-negative"):
            shortest_paths(indptr, indices, weights, 0)

    def test_parent_pointers_consistent(self, rng):
        pts = rng.uniform(0, 30, size=(50, 2))
        topo = Topology(pts, comm_range=9.0)
        dist, parent = shortest_paths(topo.indptr, topo.indices, topo.weights, 0)
        for v in range(50):
            p = parent[v]
            if p >= 0:
                edge = np.hypot(*(topo.points[v] - topo.points[p]))
                assert dist[v] == pytest.approx(dist[p] + edge)
