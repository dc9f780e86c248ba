"""Unit tests for repro.network.routing."""

import numpy as np
import pytest

from repro.network.routing import RoutingTree, ancestor_table
from repro.network.topology import Topology


def path_to_base(tree, node):
    """Vertex sequence from ``node`` to the base, following the parents."""
    path = [node]
    while path[-1] != tree.base:
        path.append(int(tree.parent[path[-1]]))
        assert len(path) <= len(tree.topology), "parent pointers contain a cycle"
    return path


def make_tree(rng, n=50, side=40.0, rng_comm=10.0):
    pts = rng.uniform(0, side, size=(n, 2))
    topo = Topology(pts, comm_range=rng_comm, base_station=[side / 2, side / 2])
    return RoutingTree(topo)


class TestRoutingTree:
    def test_requires_base(self):
        topo = Topology(np.zeros((2, 2)), comm_range=1.0)
        with pytest.raises(ValueError):
            RoutingTree(topo)

    def test_path_reaches_base(self, rng):
        tree = make_tree(rng)
        for v in np.flatnonzero(tree.connected_mask()):
            path = path_to_base(tree, int(v))
            assert path[0] == v
            assert path[-1] == tree.base

    def test_path_lengths_decrease_toward_base(self, rng):
        tree = make_tree(rng)
        for v in np.flatnonzero(tree.connected_mask()):
            path = path_to_base(tree, int(v))
            d = [tree.dist[u] for u in path]
            assert all(d[i] > d[i + 1] for i in range(len(d) - 1))

    def test_disconnected_sensor_has_no_route(self):
        pts = np.array([[0.0, 0.0], [100.0, 100.0]])
        topo = Topology(pts, comm_range=2.0, base_station=[0.0, 1.0])
        tree = RoutingTree(topo)
        assert tree.connected_mask().tolist() == [True, False]
        assert tree.parent[1] == -1
        assert tree.dist[1] == np.inf
        assert ancestor_table(tree.parent, tree.base, 2).tolist() == [[], []]

    def test_hop_counts(self):
        """Along a chain, sensor k has the k sensors nearer the base
        above it (k + 1 hops), nearest first, padded with n."""
        pts = np.column_stack([np.arange(1, 4) * 1.0, np.zeros(3)])
        topo = Topology(pts, comm_range=1.1, base_station=[0.0, 0.0])
        tree = RoutingTree(topo)
        table = ancestor_table(tree.parent, tree.base, 3)
        assert table.tolist() == [[3, 3], [0, 3], [1, 0]]

    def test_hop_counts_disconnected(self):
        """An unrouted sensor's ancestor row is padding only."""
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [50.0, 0.0]])
        topo = Topology(pts, comm_range=1.5, base_station=[0.0, 0.0])
        tree = RoutingTree(topo)
        table = ancestor_table(tree.parent, tree.base, 3)
        assert table.tolist() == [[3], [0], [3]]

    def test_next_hop_moves_closer(self, rng):
        tree = make_tree(rng)
        for v in np.flatnonzero(tree.connected_mask()):
            hop = tree.parent[v]
            assert tree.dist[hop] < tree.dist[v]
