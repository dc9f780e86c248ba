"""Unit tests for repro.network.topology."""

import numpy as np
import pytest

from oracles import to_networkx
from repro.network.topology import Topology


def line_positions(n, spacing):
    return np.column_stack([np.arange(n) * spacing, np.zeros(n)])


class TestTopology:
    def test_chain_graph(self):
        topo = Topology(line_positions(4, 1.0), comm_range=1.5)
        assert topo.n_edges == 3
        assert sorted(topo.neighbors(1).tolist()) == [0, 2]

    def test_weights_are_distances(self):
        topo = Topology(line_positions(3, 2.0), comm_range=2.5)
        assert np.allclose(topo.neighbor_weights(0), [2.0])

    def test_no_edges_beyond_range(self):
        topo = Topology(line_positions(3, 10.0), comm_range=5.0)
        assert topo.n_edges == 0
        assert topo.degree(0) == 0

    def test_base_station_appended(self):
        pts = line_positions(3, 1.0)
        topo = Topology(pts, comm_range=1.5, base_station=[1.0, 1.0])
        assert len(topo) == 4
        assert topo.base_index == 3
        # Base at (1,1) is within 1.5 of all three sensors.
        assert sorted(topo.neighbors(3).tolist()) == [0, 1, 2]

    def test_symmetry(self, rng):
        pts = rng.uniform(0, 30, size=(40, 2))
        topo = Topology(pts, comm_range=8.0)
        for u in range(40):
            for v in topo.neighbors(u):
                assert u in topo.neighbors(int(v))

    def test_connected_to_base(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0]])
        topo = Topology(pts, comm_range=1.5, base_station=[0.0, 1.0])
        mask = topo.is_connected_to_base()
        assert mask.tolist() == [True, True, False]

    def test_connected_to_base_requires_base(self):
        topo = Topology(line_positions(3, 1.0), comm_range=1.5)
        with pytest.raises(ValueError):
            topo.is_connected_to_base()

    def test_to_networkx_matches(self, rng):
        pts = rng.uniform(0, 20, size=(25, 2))
        topo = Topology(pts, comm_range=6.0, base_station=[10.0, 10.0])
        g = to_networkx(topo)
        assert g.number_of_nodes() == 26
        assert g.number_of_edges() == topo.n_edges
        for u, v, data in g.edges(data=True):
            d = np.hypot(*(topo.points[u] - topo.points[v]))
            assert data["weight"] == pytest.approx(d)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            Topology(line_positions(3, 1.0), comm_range=0.0)

    def test_empty_network_with_base(self):
        topo = Topology(np.empty((0, 2)), comm_range=5.0, base_station=[0.0, 0.0])
        assert len(topo) == 1
        assert topo.n_sensors == 0
