"""Unit tests for the recharge node list and cluster aggregation."""

import numpy as np
import pytest

from repro.core.requests import (
    RechargeNodeList,
    RechargeRequest,
    aggregate_by_cluster,
)


def req(node_id, x=0.0, y=0.0, demand=10.0, cluster=-1, t=0.0):
    return RechargeRequest(node_id, np.array([x, y]), demand, cluster, t)


class TestRechargeRequest:
    def test_position_canonicalized(self):
        r = req(0, 1.0, 2.0)
        assert r.position.shape == (2,)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            req(0, demand=-1.0)

    @pytest.mark.parametrize("demand", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_demand_rejected(self, demand):
        # ``nan < 0`` is False: without an explicit check a NaN demand
        # would construct, win the greedy argmax and plan as nan.
        with pytest.raises(ValueError, match="finite"):
            RechargeRequest(0, [10.0, 0.0], demand)

    @pytest.mark.parametrize(
        "position", [[float("nan"), 0.0], [0.0, float("inf")], [float("-inf"), 1.0]]
    )
    def test_non_finite_position_rejected(self, position):
        with pytest.raises(ValueError, match="finite"):
            RechargeRequest(0, position, 10.0)


class TestRechargeNodeList:
    def test_insertion_order_preserved(self):
        lst = RechargeNodeList([req(3), req(1), req(2)])
        assert lst.node_ids.tolist() == [3, 1, 2]

    def test_dedup_refreshes(self):
        lst = RechargeNodeList()
        lst.add(req(1, demand=5.0))
        lst.add(req(1, demand=9.0))
        assert len(lst) == 1
        assert lst.get(1).demand_j == 9.0

    def test_remove(self):
        lst = RechargeNodeList([req(1), req(2)])
        removed = lst.remove(1)
        assert removed.node_id == 1
        assert lst.remove(99) is None
        assert len(lst) == 1

    def test_remove_many(self):
        lst = RechargeNodeList([req(i) for i in range(5)])
        lst.remove_many([0, 2, 4])
        assert lst.node_ids.tolist() == [1, 3]

    def test_contains(self):
        lst = RechargeNodeList([req(7)])
        assert 7 in lst
        assert 8 not in lst

    def test_array_views(self):
        lst = RechargeNodeList([req(0, 1, 2, 5.0, 3), req(1, 3, 4, 7.0, -1)])
        assert lst.positions().shape == (2, 2)
        assert lst.demands().tolist() == [5.0, 7.0]
        assert lst.cluster_ids().tolist() == [3, -1]

    def test_empty_views(self):
        lst = RechargeNodeList()
        assert lst.positions().shape == (0, 2)
        assert lst.demands().shape == (0,)
        assert len(lst.snapshot()) == 0

    def test_clear(self):
        lst = RechargeNodeList([req(1)])
        lst.clear()
        assert len(lst) == 0


class TestAggregation:
    def test_singletons_stay_separate(self):
        out = aggregate_by_cluster([req(0, cluster=-1), req(1, cluster=-1)])
        assert len(out) == 2
        assert all(len(a.members) == 1 for a in out)

    def test_cluster_members_fold(self):
        out = aggregate_by_cluster(
            [req(0, 0, 0, 5.0, cluster=2), req(1, 2, 0, 7.0, cluster=2), req(2, 9, 9, 1.0)]
        )
        assert len(out) == 2
        agg = out[0]
        assert agg.cluster_id == 2
        assert agg.demand_j == pytest.approx(12.0)
        assert np.allclose(agg.position, [1.0, 0.0])
        assert agg.member_ids() == [0, 1]

    def test_first_appearance_order(self):
        out = aggregate_by_cluster(
            [req(0, cluster=5), req(1, cluster=-1), req(2, cluster=5)]
        )
        assert [a.cluster_id for a in out] == [5, -1]

    def test_visit_order_nearest_neighbor(self):
        members = (req(0, 0, 0, 1, 4), req(1, 10, 0, 1, 4), req(2, 5, 0, 1, 4))
        agg = aggregate_by_cluster(members)[0]
        order = agg.visit_order_from(np.array([-1.0, 0.0]))
        assert order == [0, 2, 1]

    def test_empty(self):
        assert aggregate_by_cluster([]) == []
