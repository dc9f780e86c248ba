"""Unit tests for the activation schemes (Section III-C), run against
the activators the simulator uses (:mod:`repro.sim.soa`)."""

import numpy as np

from repro.core.clustering import Cluster, ClusterSet
from repro.sim.soa import FullTimeActivator, RoundRobinActivator, StateArrays


def make_cs():
    """Two clusters (sizes 3 and 2) over 6 sensors; sensor 5 unclustered."""
    return ClusterSet([Cluster(0, [0, 1, 2]), Cluster(1, [3, 4])], n_sensors=6)


def build(cls, cs):
    """``cls`` over ``cs``, on a fresh :class:`StateArrays`."""
    return cls(cs, StateArrays(cs.n_sensors, 0))


class TestFullTime:
    def test_all_alive_members_active(self):
        act = build(FullTimeActivator, make_cs())
        alive = np.ones(6, dtype=bool)
        assert act.active_mask(alive).tolist() == [True] * 5 + [False]

    def test_dead_members_inactive(self):
        act = build(FullTimeActivator, make_cs())
        alive = np.array([True, False, True, False, False, True])
        assert act.active_mask(alive).tolist() == [True, False, True, False, False, False]

    def test_covered_mask(self):
        act = build(FullTimeActivator, make_cs())
        alive = np.array([False, False, False, True, True, True])
        assert act.covered_mask(alive).tolist() == [False, True]

    def test_rotate_noop(self):
        act = build(FullTimeActivator, make_cs())
        assert len(act.rotate(np.ones(6, dtype=bool))) == 0


class TestRoundRobin:
    def test_starts_at_lowest_id(self):
        act = build(RoundRobinActivator, make_cs())
        alive = np.ones(6, dtype=bool)
        assert act.active_sensor_per_cluster(alive).tolist() == [0, 3]

    def test_one_active_per_cluster(self):
        act = build(RoundRobinActivator, make_cs())
        alive = np.ones(6, dtype=bool)
        mask = act.active_mask(alive)
        assert mask.sum() == 2

    def test_rotation_cycles(self):
        act = build(RoundRobinActivator, make_cs())
        alive = np.ones(6, dtype=bool)
        seq = []
        for _ in range(6):
            seq.append(act.active_sensor_per_cluster(alive)[0])
            act.rotate(alive)
        assert seq == [0, 1, 2, 0, 1, 2]

    def test_rotation_skips_dead(self):
        act = build(RoundRobinActivator, make_cs())
        alive = np.array([True, False, True, True, True, True])
        assert act.active_sensor_per_cluster(alive)[0] == 0
        act.rotate(alive)
        assert act.active_sensor_per_cluster(alive)[0] == 2  # skipped 1

    def test_handoffs_reported(self):
        act = build(RoundRobinActivator, make_cs())
        alive = np.ones(6, dtype=bool)
        handoffs = act.rotate(alive)
        # Cluster 0: 0 -> 1; cluster 1: 3 -> 4.
        assert handoffs.tolist() == [[0, 1], [3, 4]]

    def test_no_handoff_single_alive(self):
        act = build(RoundRobinActivator, make_cs())
        alive = np.array([True, False, False, True, False, False])
        handoffs = act.rotate(alive)
        assert len(handoffs) == 0

    def test_all_dead_cluster_uncovered(self):
        act = build(RoundRobinActivator, make_cs())
        alive = np.array([False, False, False, True, True, True])
        assert act.covered_mask(alive).tolist() == [False, True]
        assert act.active_sensor_per_cluster(alive)[0] == -1

    def test_empty_cluster(self):
        cs = ClusterSet([Cluster(0, np.array([], dtype=np.intp))], n_sensors=3)
        act = build(RoundRobinActivator, cs)
        alive = np.ones(3, dtype=bool)
        assert act.active_sensor_per_cluster(alive).tolist() == [-1]
        assert len(act.rotate(alive)) == 0

    def test_unclustered_never_active(self):
        act = build(RoundRobinActivator, make_cs())
        alive = np.ones(6, dtype=bool)
        for _ in range(5):
            assert not act.active_mask(alive)[5]
            act.rotate(alive)

    def test_energy_balance_over_full_cycle(self):
        """Over nc rotations every member serves exactly once."""
        act = build(RoundRobinActivator, make_cs())
        alive = np.ones(6, dtype=bool)
        served = {0: 0, 1: 0, 2: 0}
        for _ in range(6):  # two full cycles of cluster 0
            s = act.active_sensor_per_cluster(alive)[0]
            served[int(s)] += 1
            act.rotate(alive)
        assert set(served.values()) == {2}
