"""The relay-load model on the routing tree.

Every active sensor originates one packet per reporting period, and
each packet is forwarded hop by hop to the base station.  A sensor's
relay load is the number of packets it forwards for others: the
origins in its strict routing subtree.  The simulator reads it from
the tree's ancestor table (:func:`repro.network.routing.ancestor_table`,
gathered by :func:`repro.sim.soa.relay_counts`); these tests check it
on hand-built trees and against a hop-by-hop walk.
"""

import numpy as np
import pytest

from repro.network.routing import RoutingTree, ancestor_table
from repro.network.topology import Topology
from repro.sim.soa import relay_counts


def hop_by_hop(tree, origins):
    """Reference loads: push every connected origin's packet up its root
    path, one hop at a time (the base is the last entry)."""
    through = np.zeros(len(tree.topology), dtype=np.int64)
    for v in np.flatnonzero(origins & tree.connected_mask()):
        u = v
        while u >= 0:
            through[u] += 1
            u = tree.parent[u]
    return through


def chain_tree(n=4):
    """Sensors in a line at x = 1..n, base at the origin."""
    pts = np.column_stack([np.arange(1, n + 1) * 1.0, np.zeros(n)])
    topo = Topology(pts, comm_range=1.1, base_station=[0.0, 0.0])
    return RoutingTree(topo)


def relay(tree, origins):
    return relay_counts(origins, ancestor_table(tree.parent, tree.base, tree.n_sensors))


class TestSubtreeRates:
    def test_chain_accumulates(self):
        tree = chain_tree(4)
        origins = np.ones(4, dtype=bool)
        # Node 0 (nearest base) carries everything: its own packet plus
        # the three it relays.
        assert (relay(tree, origins) + origins).tolist() == [4, 3, 2, 1]

    def test_disconnected_sources_dropped(self):
        pts = np.array([[1.0, 0.0], [50.0, 0.0]])
        topo = Topology(pts, comm_range=1.5, base_station=[0.0, 0.0])
        tree = RoutingTree(topo)
        assert relay(tree, np.ones(2, dtype=bool)).tolist() == [0, 0]


class TestRelayRates:
    def test_chain(self):
        tree = chain_tree(4)
        assert relay(tree, np.ones(4, dtype=bool)).tolist() == [3, 2, 1, 0]

    def test_leaf_relays_nothing(self):
        tree = chain_tree(5)
        assert relay(tree, np.ones(5, dtype=bool))[-1] == 0

    def test_conservation(self, rng):
        """Total delivered to base = total originated by connected sensors."""
        pts = rng.uniform(0, 40, size=(60, 2))
        topo = Topology(pts, comm_range=12.0, base_station=[20.0, 20.0])
        tree = RoutingTree(topo)
        origins = rng.random(60) < 0.5
        load = relay(tree, origins)
        last_hop = np.flatnonzero(tree.parent[:60] == tree.base)
        delivered = int(load[last_hop].sum() + origins[last_hop].sum())
        assert delivered == int((origins & tree.connected_mask()).sum())

    def test_nonnegative(self, rng):
        pts = rng.uniform(0, 40, size=(50, 2))
        topo = Topology(pts, comm_range=10.0, base_station=[20.0, 20.0])
        tree = RoutingTree(topo)
        assert np.all(relay(tree, rng.random(50) < 0.5) >= 0)


class TestAgainstHopByHop:
    @pytest.mark.parametrize("comm_range", [6.0, 10.0, 16.0])
    def test_random_trees(self, rng, comm_range):
        """Relay loads equal the hop-by-hop accumulation minus each
        connected origin's own packet, disconnected sensors included
        (they carry nothing)."""
        pts = rng.uniform(0, 40, size=(80, 2))
        topo = Topology(pts, comm_range=comm_range, base_station=[20.0, 20.0])
        tree = RoutingTree(topo)
        origins = rng.random(80) < 0.6
        own = origins & tree.connected_mask()
        want = hop_by_hop(tree, origins)[:80] - own
        assert np.array_equal(relay(tree, origins), want)
