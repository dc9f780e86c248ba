"""One stop table per round vs re-aggregating what is left.

The insertion-family schedulers (insertion / Combined-Scheme, the
Partition-Scheme per group, the deadline-aware extension) aggregate a
round's backlog into super-nodes once and plan every RV and every
chained sequence over the live stops by index.  The oracles in
``oracles.py`` re-snapshot and re-aggregate before every RV and every
sequence.  Contract under test: identical plans (node ids, waypoint
bytes, travel, demand, profit) and identical leftover lists, on
instances that mix singletons with clusters of one and of more than
eight members, tight budgets that force trimming, one to four RVs and
duplicate positions (ties).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combined import CombinedScheduler
from repro.core.extensions import DeadlineAwareScheduler
from repro.core.insertion import InsertionScheduler
from repro.core.partition import PartitionScheduler
from repro.core.requests import RechargeNodeList, RechargeRequest
from repro.core.scheduling import RVView

import oracles

# A coarse grid makes duplicate positions (and so distance ties) common.
grid = st.integers(0, 12).map(lambda v: 8.0 * v)
point = st.tuples(grid, grid)


@st.composite
def instances(draw):
    sizes = draw(st.lists(st.sampled_from([1, 1, 2, 3, 9, 11]), min_size=0, max_size=4))
    n_single = draw(st.integers(0, 5))
    labels = [c for c, size in enumerate(sizes) for _ in range(size)] + [-1] * n_single
    if not labels:
        labels = [-1]
    order = draw(st.permutations(range(len(labels))))
    requests = []
    for node_id, i in enumerate(order):
        requests.append(
            RechargeRequest(
                node_id=node_id,
                position=np.array(draw(point)),
                demand_j=float(draw(st.sampled_from([5.0, 40.0, 40.0, 150.0, 600.0]))),
                cluster_id=labels[i],
                release_time_s=float(draw(st.integers(0, 10))),
            )
        )
    n_rvs = draw(st.integers(1, 4))
    # Budgets from "can afford one stop" up to "can afford most of it",
    # so the centroid-priced plan often overruns after expansion and
    # trailing stops get trimmed.
    views = [
        RVView(
            rv_id=j,
            position=np.array(draw(point)),
            budget_j=float(draw(st.sampled_from([30.0, 200.0, 700.0, 1500.0, 4000.0]))),
            em_j_per_m=draw(st.sampled_from([1.0, 5.6])),
            charge_efficiency=draw(st.sampled_from([1.0, 0.8])),
            depot=np.array([48.0, 48.0]),
        )
        for j in range(n_rvs)
    ]
    return requests, views


def fingerprint(plans):
    return {
        rv_id: (
            plan.node_ids,
            plan.waypoints.tobytes(),
            plan.travel_m,
            plan.demand_j,
            plan.profit_j,
        )
        for rv_id, plan in plans.items()
    }


def run_both(instance, library_assign, oracle_assign):
    requests, views = instance
    got_list = RechargeNodeList(requests)
    want_list = RechargeNodeList(requests)
    got = library_assign(got_list, views)
    want = oracle_assign(want_list, views)
    assert fingerprint(got) == fingerprint(want)
    assert got_list.node_ids.tolist() == want_list.node_ids.tolist()
    return got


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from([InsertionScheduler, CombinedScheduler]))
def test_insertion_matches_reaggregating_oracle(instance, scheduler_cls):
    run_both(
        instance,
        lambda reqs, views: scheduler_cls().assign(reqs, views, np.random.default_rng(0)),
        oracles.insertion_assign,
    )


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_partition_matches_reaggregating_oracle(instance, fleet_size, seed):
    run_both(
        instance,
        lambda reqs, views: PartitionScheduler(fleet_size).assign(
            reqs, views, np.random.default_rng(seed)
        ),
        lambda reqs, views: oracles.partition_assign(
            fleet_size, reqs, views, np.random.default_rng(seed)
        ),
    )


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from([3.0, 6.0, 11.0]))
def test_deadline_matches_reaggregating_oracle(instance, urgency_age_s):
    def library(reqs, views):
        scheduler = DeadlineAwareScheduler(urgency_age_s=urgency_age_s)
        scheduler.observe_time(10.0)
        return scheduler.assign(reqs, views, np.random.default_rng(0))

    run_both(
        instance,
        library,
        lambda reqs, views: oracles.deadline_assign(10.0, urgency_age_s, reqs, views),
    )


@settings(max_examples=150, deadline=None)
@given(instances())
def test_chained_plan_consumes_like_the_oracle(instance):
    requests, views = instance
    rv = views[0]
    got_left, want_left = RechargeNodeList(requests), list(requests)
    got = InsertionScheduler().assign(got_left, [rv], np.random.default_rng(0))
    want = oracles.plan_single_rv_chained(want_left, rv)
    assert fingerprint(got) == fingerprint({rv.rv_id: want} if want else {})
    assert got_left.node_ids.tolist() == [r.node_id for r in want_left]


def _random_instance(rng):
    """A plain-numpy draw of the same shape as :func:`instances`."""
    sizes = rng.choice([1, 1, 2, 3, 9, 11], size=int(rng.integers(0, 5)))
    labels = [c for c, size in enumerate(sizes) for _ in range(size)]
    labels += [-1] * int(rng.integers(0, 6))
    labels = labels or [-1]
    labels = [labels[i] for i in rng.permutation(len(labels))]
    requests = [
        RechargeRequest(
            node_id=i,
            position=8.0 * rng.integers(0, 13, size=2),
            demand_j=float(rng.choice([5.0, 40.0, 40.0, 150.0, 600.0])),
            cluster_id=c,
        )
        for i, c in enumerate(labels)
    ]
    views = [
        RVView(
            rv_id=j,
            position=8.0 * rng.integers(0, 13, size=2),
            budget_j=float(rng.choice([30.0, 200.0, 700.0, 1500.0, 4000.0])),
            em_j_per_m=float(rng.choice([1.0, 5.6])),
            charge_efficiency=float(rng.choice([1.0, 0.8])),
        )
        for j in range(int(rng.integers(1, 5)))
    ]
    return requests, views


def test_instances_reach_trimming_and_multi_sequence_chains(monkeypatch):
    """Instances of this shape reach the paths the contract is about: a
    centroid-priced order that overruns the budget once expanded
    (trimmed) and an RV that chains more than one sequence."""
    import repro.core.insertion as insertion

    seen = {"trimmed": 0, "chains": 0, "run": 0}
    plan_sequence = insertion._plan_sequence
    plan_chained = insertion._plan_chained

    def sequence_spy(table, position, budget_j, em, eff):
        order = insertion._insertion_order(table, position, budget_j, em, eff)
        plan = plan_sequence(table, position, budget_j, em, eff)
        if plan is not None:
            seen["run"] += 1
            seen["trimmed"] += len(plan[4]) < len(order)
        return plan

    def chained_spy(table, rv):
        seen["run"] = 0
        plan = plan_chained(table, rv)
        seen["chains"] += seen["run"] > 1
        return plan

    monkeypatch.setattr(insertion, "_plan_sequence", sequence_spy)
    monkeypatch.setattr(insertion, "_plan_chained", chained_spy)
    rng = np.random.default_rng(5)
    for _ in range(300):
        requests, views = _random_instance(rng)
        InsertionScheduler().assign(
            RechargeNodeList(requests), views, np.random.default_rng(0)
        )
    assert seen["trimmed"] > 0
    assert seen["chains"] > 0
