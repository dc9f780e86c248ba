"""Tests for the ETX routing metric wired into the world."""

import numpy as np
import pytest

from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.world import World


def make(**overrides):
    defaults = dict(
        n_sensors=60,
        n_targets=3,
        n_rvs=1,
        side_length_m=70.0,
        comm_range_m=14.0,
        sim_time_s=0.5 * DAY_S,
        battery_capacity_j=500.0,
        initial_charge_range=(0.6, 0.9),
        seed=21,
    )
    defaults.update(overrides)
    return World(SimulationConfig(**defaults))


class TestEtxRouting:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(routing_metric="hops")

    def test_world_builds_and_runs(self):
        w = make(routing_metric="etx")
        s = w.run()
        assert s.sim_time_s > 0

    def test_uplink_etx_at_least_one(self):
        w = make(routing_metric="etx")
        assert np.all(w.state.uplink_etx >= 1.0 - 1e-12)

    def test_distance_metric_etx_is_one(self):
        w = make(routing_metric="distance")
        assert np.all(w.state.uplink_etx == 1.0)

    def test_etx_paths_avoid_grey_links_when_possible(self):
        """The ETX tree never uses a grey-zone hop when the distance
        tree offers a clean alternative of comparable length... at
        minimum, the ETX tree's hops are no longer than the range."""
        w = make(routing_metric="etx")
        for v in range(w.cfg.n_sensors):
            p = w.state.routing.parent[v]
            if p >= 0:
                hop = np.hypot(*(w.state.topology.points[v] - w.state.topology.points[p]))
                assert hop <= w.cfg.comm_range_m + 1e-9

    def test_etx_drains_relays_at_least_as_fast(self):
        """With retransmission energy charged, total network draw under
        ETX routing is >= the distance-metric draw (same deployment)."""
        w_d = make(routing_metric="distance")
        w_e = make(routing_metric="etx")
        # Same seed -> same deployment, clusters and actives.
        assert np.allclose(w_d.state.sensor_pos, w_e.state.sensor_pos)
        # ETX re-routing may shift relay roles, but the *total* cost of
        # delivering the same packet stream cannot be cheaper than
        # loss-free shortest-path delivery.
        assert w_e.energy.rates.sum() >= w_d.energy.rates.sum() * 0.999

    def test_serialization_roundtrip(self):
        from repro.sim.serialization import config_from_dict, config_to_dict

        cfg = SimulationConfig.small(routing_metric="etx")
        assert config_from_dict(config_to_dict(cfg)) == cfg
