"""Unit tests for the Partition-Scheme and Combined-Scheme."""

import numpy as np
import pytest

from repro.core.combined import CombinedScheduler
from repro.core.insertion import InsertionScheduler
from oracles import partition_requests
from repro.core.partition import PartitionScheduler
from repro.core.requests import RechargeNodeList, RechargeRequest
from repro.core.scheduling import RVView


def req(node_id, x, y, demand=30.0, cluster=-1):
    return RechargeRequest(node_id, np.array([x, y]), demand, cluster)


def view(rv_id=0, pos=(0.0, 0.0), budget=1e9, em=1.0):
    return RVView(rv_id=rv_id, position=np.array(pos), budget_j=budget, em_j_per_m=em)


class TestPartitionRequests:
    """The K-means groups the Partition-Scheme plans over (its labels,
    grouped by ``oracles.partition_requests``)."""

    def test_two_blobs_split(self, rng):
        positions = np.vstack(
            [rng.normal([0, 0], 0.5, size=(10, 2)), rng.normal([100, 100], 0.5, size=(10, 2))]
        )
        groups = partition_requests(positions, 2, rng)
        assert len(groups) == 2
        sides = [set(g // 10 for g in grp) for grp in groups]
        assert all(len(s) == 1 for s in sides)

    def test_fewer_points_than_groups(self, rng):
        groups = partition_requests(np.array([[0.0, 0.0], [1.0, 1.0]]), 5, rng)
        assert len(groups) == 2

    def test_empty(self, rng):
        assert partition_requests(np.empty((0, 2)), 3, rng) == []

    def test_single_group(self, rng):
        groups = partition_requests(np.zeros((4, 2)), 1, rng)
        assert len(groups) == 1
        assert len(groups[0]) == 4


class TestPartitionScheduler:
    def test_rvs_claim_nearest_group(self, rng):
        lst = RechargeNodeList(
            [req(0, 0, 0), req(1, 1, 0), req(2, 100, 100), req(3, 101, 100)]
        )
        views = [view(0, pos=(0.0, 0.0)), view(1, pos=(100.0, 100.0))]
        plans = PartitionScheduler(fleet_size=2).assign(lst, views, rng)
        assert sorted(plans[0].node_ids) == [0, 1]
        assert sorted(plans[1].node_ids) == [2, 3]
        assert len(lst) == 0

    def test_leftover_groups_wait(self, rng):
        lst = RechargeNodeList(
            [req(0, 0, 0), req(1, 100, 0), req(2, 0, 100)]
        )
        plans = PartitionScheduler(fleet_size=3).assign(lst, [view(0)], rng)
        assert len(plans) == 1
        assert len(lst) == 2  # two groups unserved

    def test_no_idle_rvs(self, rng):
        lst = RechargeNodeList([req(0, 0, 0)])
        assert PartitionScheduler(2).assign(lst, [], rng) == {}
        assert len(lst) == 1

    def test_empty_list(self, rng):
        assert PartitionScheduler(2).assign(RechargeNodeList(), [view()], rng) == {}

    def test_fleet_size_validation(self):
        with pytest.raises(ValueError):
            PartitionScheduler(0)

    def test_rv_confined_to_one_group(self, rng):
        """A single idle RV serves one K-means group, not the far one."""
        lst = RechargeNodeList(
            [req(0, 0, 0), req(1, 1, 1), req(2, 200, 200), req(3, 201, 201)]
        )
        plans = PartitionScheduler(fleet_size=2).assign(lst, [view(0, pos=(0, 0))], rng)
        assert sorted(plans[0].node_ids) == [0, 1]
        assert sorted(lst.node_ids.tolist()) == [2, 3]


class TestCombinedScheduler:
    def test_is_insertion_with_global_view(self):
        assert issubclass(CombinedScheduler, InsertionScheduler)
        assert CombinedScheduler().name == "combined"

    def test_sequential_global_assignment(self, rng):
        lst = RechargeNodeList([req(i, 10.0 * i, 0.0) for i in range(1, 7)])
        views = [view(0, pos=(0, 0)), view(1, pos=(70, 0))]
        plans = CombinedScheduler().assign(lst, views, rng)
        served = sorted(sum((list(p.node_ids) for p in plans.values()), []))
        assert served == [1, 2, 3, 4, 5, 6]
        assert len(lst) == 0

    def test_second_rv_gets_remainder(self, rng):
        lst = RechargeNodeList([req(0, 5, 0), req(1, 6, 0)])
        views = [view(0, pos=(0, 0)), view(1, pos=(0, 0))]
        plans = CombinedScheduler().assign(lst, views, rng)
        # First RV chains everything; the second has nothing left.
        assert 0 in plans
        assert 1 not in plans
