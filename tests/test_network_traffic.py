"""Unit tests for repro.network.traffic.

The loads are prefix-sum differences in DFS preorder, so they match a
hop-by-hop accumulation to rounding: float comparisons carry explicit
tolerances (``RTOL`` / ``ATOL``).
"""

import numpy as np
import pytest

from repro.network.routing import RoutingTree
from repro.network.topology import Topology
from repro.network.traffic import relay_rates, subtree_rates

RTOL = 1e-12
ATOL = 1e-12


def hop_by_hop(tree, rates):
    """Reference loads: push every connected sensor's rate up its root
    path, one hop at a time."""
    through = np.zeros(len(tree.topology))
    connected = tree.connected_mask()
    for v in np.flatnonzero(connected):
        u = v
        while u >= 0:
            through[u] += rates[v]
            u = tree.parent[u]
    return through


def chain_tree(n=4):
    """Sensors in a line at x = 1..n, base at the origin."""
    pts = np.column_stack([np.arange(1, n + 1) * 1.0, np.zeros(n)])
    topo = Topology(pts, comm_range=1.1, base_station=[0.0, 0.0])
    return RoutingTree(topo)


class TestSubtreeRates:
    def test_chain_accumulates(self):
        tree = chain_tree(4)
        rates = np.array([1.0, 1.0, 1.0, 1.0])
        through = subtree_rates(tree, rates)
        # Node 0 (nearest base) carries everything; base sees the total.
        np.testing.assert_allclose(through[:4], [4.0, 3.0, 2.0, 1.0], rtol=RTOL, atol=ATOL)
        assert through[4] == pytest.approx(4.0, rel=RTOL, abs=ATOL)

    def test_disconnected_sources_dropped(self):
        pts = np.array([[1.0, 0.0], [50.0, 0.0]])
        topo = Topology(pts, comm_range=1.5, base_station=[0.0, 0.0])
        tree = RoutingTree(topo)
        through = subtree_rates(tree, np.array([1.0, 1.0]))
        np.testing.assert_allclose(through, [1.0, 0.0, 1.0], rtol=RTOL, atol=ATOL)

    def test_shape_validation(self):
        tree = chain_tree(3)
        with pytest.raises(ValueError):
            subtree_rates(tree, np.zeros(5))

    def test_negative_rate_rejected(self):
        tree = chain_tree(3)
        with pytest.raises(ValueError):
            subtree_rates(tree, np.array([-1.0, 0.0, 0.0]))


class TestRelayRates:
    def test_chain(self):
        tree = chain_tree(4)
        relay = relay_rates(tree, np.ones(4))
        np.testing.assert_allclose(relay, [3.0, 2.0, 1.0, 0.0], rtol=RTOL, atol=ATOL)

    def test_leaf_relays_nothing(self):
        tree = chain_tree(5)
        relay = relay_rates(tree, np.ones(5))
        assert relay[-1] == pytest.approx(0.0, abs=ATOL)

    def test_conservation(self, rng):
        """Total delivered to base = total originated by connected sensors."""
        pts = rng.uniform(0, 40, size=(60, 2))
        topo = Topology(pts, comm_range=12.0, base_station=[20.0, 20.0])
        tree = RoutingTree(topo)
        orig = rng.uniform(0, 2, size=60)
        through = subtree_rates(tree, orig)
        connected = tree.connected_mask()
        assert through[tree.base] == pytest.approx(orig[connected].sum(), rel=RTOL)

    def test_nonnegative(self, rng):
        pts = rng.uniform(0, 40, size=(50, 2))
        topo = Topology(pts, comm_range=10.0, base_station=[20.0, 20.0])
        tree = RoutingTree(topo)
        relay = relay_rates(tree, rng.uniform(0, 1, size=50))
        assert np.all(relay >= 0)


class TestAgainstHopByHop:
    @pytest.mark.parametrize("comm_range", [6.0, 10.0, 16.0])
    def test_random_trees(self, rng, comm_range):
        """Through and relay loads equal the hop-by-hop accumulation to
        rounding, disconnected sensors included (they carry nothing)."""
        pts = rng.uniform(0, 40, size=(80, 2))
        topo = Topology(pts, comm_range=comm_range, base_station=[20.0, 20.0])
        tree = RoutingTree(topo)
        orig = rng.uniform(0, 2, size=80)
        ref = hop_by_hop(tree, orig)
        np.testing.assert_allclose(subtree_rates(tree, orig), ref, rtol=RTOL, atol=ATOL)
        own = np.where(tree.connected_mask(), orig, 0.0)
        np.testing.assert_allclose(
            relay_rates(tree, orig), ref[:80] - own, rtol=RTOL, atol=ATOL
        )
