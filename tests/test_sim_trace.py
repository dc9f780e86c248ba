"""Tests for the event side of the event log and its World integration."""

import json

import numpy as np
import pytest

from repro.obs import NULL_LOG, EventKind, EventLog
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.world import World


def traced_world(**overrides):
    defaults = dict(
        n_sensors=40,
        n_targets=3,
        n_rvs=1,
        side_length_m=60.0,
        sim_time_s=0.5 * DAY_S,
        battery_capacity_j=400.0,
        initial_charge_range=(0.5, 0.8),
        dispatch_period_s=1800.0,
        seed=42,
    )
    defaults.update(overrides)
    log = EventLog()
    world = World(SimulationConfig(**defaults), log=log)
    return world, log


class TestTraceRecorder:
    def test_emit_and_query(self):
        t = EventLog()
        t.emit(1.0, EventKind.NODE_RECHARGED, 5, 100.0)
        t.emit(2.0, EventKind.SENSOR_DEPLETED, 6)
        assert t.count(EventKind.NODE_RECHARGED) == 1
        assert t.of_kind(EventKind.SENSOR_DEPLETED)[0].subject == 6
        assert list(t.between(0.5, 1.5))[0].kind is EventKind.NODE_RECHARGED

    def test_series(self):
        t = EventLog()
        t.sample(0.0, "x", 1.0)
        t.sample(5.0, "x", 2.0)
        times, values = t.series_arrays("x")
        assert times.tolist() == [0.0, 5.0]
        assert values.tolist() == [1.0, 2.0]

    def test_series_arrays_never_sampled_matches_empty(self):
        """A never-sampled series and an empty one behave identically."""
        t = EventLog()
        t.series["empty"] = []
        for name in ("empty", "missing"):
            times, values = t.series_arrays(name)
            assert times.shape == (0,)
            assert values.shape == (0,)

    def test_request_latencies_matching(self):
        t = EventLog()
        t.emit(0.0, EventKind.REQUEST_RELEASED, 1)
        t.emit(10.0, EventKind.NODE_RECHARGED, 1, 50.0)
        t.emit(12.0, EventKind.NODE_RECHARGED, 2, 50.0)  # never requested
        lats = t.request_latencies()
        assert lats == [(1, 10.0)]

    def test_request_latencies_re_released(self):
        """A node whose request is re-released before service counts once,
        from the latest release; a full serve/re-release cycle counts twice."""
        t = EventLog()
        t.emit(0.0, EventKind.REQUEST_RELEASED, 7)
        t.emit(4.0, EventKind.REQUEST_RELEASED, 7)  # re-release, still pending
        t.emit(10.0, EventKind.NODE_RECHARGED, 7, 50.0)
        t.emit(20.0, EventKind.REQUEST_RELEASED, 7)  # new cycle after service
        t.emit(23.0, EventKind.NODE_RECHARGED, 7, 50.0)
        assert t.request_latencies() == [(7, 6.0), (7, 3.0)]

    def test_between_boundaries(self):
        """between() is inclusive at t0 and exclusive at t1."""
        t = EventLog()
        t.emit(1.0, EventKind.ROTATION, 0)
        t.emit(2.0, EventKind.ROTATION, 1)
        t.emit(3.0, EventKind.ROTATION, 2)
        got = [e.subject for e in t.between(1.0, 3.0)]
        assert got == [0, 1]
        assert list(t.between(5.0, 9.0)) == []

    def test_rv_trail_filters_by_rv(self):
        t = EventLog()
        t.emit(1.0, EventKind.RV_ARRIVED, 0, 12)
        t.emit(2.0, EventKind.RV_ARRIVED, 1, 34)  # other RV
        t.emit(3.0, EventKind.RV_ARRIVED, 0, 56)
        assert t.rv_trail(0) == [(1.0, 12), (3.0, 56)]
        assert t.rv_trail(2) == []

    def test_summary_counts_unit(self):
        t = EventLog()
        assert t.summary_counts() == {}
        t.emit(0.0, EventKind.ROTATION)
        t.emit(1.0, EventKind.ROTATION)
        t.emit(2.0, EventKind.SENSOR_DEPLETED, 3)
        assert t.summary_counts() == {"rotation": 2, "sensor_depleted": 1}

    def test_null_recorder_is_noop(self):
        NULL_LOG.emit(0.0, EventKind.ROTATION)
        NULL_LOG.sample(0.0, "x", 1.0)
        assert not NULL_LOG.enabled
        assert NULL_LOG.events == [] and NULL_LOG.series == {}


class TestTraceJsonl:
    def test_round_trip_exact(self, tmp_path):
        t = EventLog()
        t.emit(0.5, EventKind.REQUEST_RELEASED, 3)
        t.emit(1.5, EventKind.NODE_RECHARGED, 3, 42.25)
        t.sample(0.0, "coverage", 0.9)
        t.sample(2.0, "coverage", 0.8)
        t.sample(1.0, "backlog", 4.0)
        path = t.write_jsonl(tmp_path / "trace.jsonl")
        back = EventLog.read_jsonl(path)
        assert back.events == t.events
        assert back.series == t.series
        # Load -> re-emit reproduces the file byte for byte, so an
        # archived trace and a live one are interchangeable on disk.
        assert back.write_jsonl(tmp_path / "again.jsonl").read_bytes() == \
            path.read_bytes()

    def test_round_trip_from_world_run(self, tmp_path):
        world, trace = traced_world()
        world.run()
        back = EventLog.read_jsonl(trace.write_jsonl(tmp_path / "t.jsonl"))
        assert back.events == trace.events
        assert back.series == trace.series
        assert back.summary_counts() == trace.summary_counts()

    def test_lines_are_tagged_json(self, tmp_path):
        t = EventLog()
        t.emit(0.0, EventKind.ROTATION)
        t.sample(0.0, "x", 1.0)
        lines = list(t.to_jsonl_lines())
        records = [json.loads(line) for line in lines]
        assert [r["type"] for r in records] == ["event", "sample"]

    def test_unknown_type_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "event", "t": 0.0, "kind": "rotation"}\n'
                        '{"type": "bogus"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            EventLog.read_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('\n{"type": "sample", "t": 1.0, "series": "x", "value": 2.0}\n\n')
        back = EventLog.read_jsonl(path)
        assert back.series == {"x": [(1.0, 2.0)]}


class TestWorldTracing:
    def test_recharge_events_match_metrics(self):
        world, trace = traced_world()
        summary = world.run()
        assert trace.count(EventKind.NODE_RECHARGED) == summary.n_recharges
        assert trace.count(EventKind.REQUEST_RELEASED) == summary.n_requests

    def test_relocations_traced(self):
        world, trace = traced_world()
        world.run()
        expected = int(world.cfg.sim_time_s // world.cfg.target_period_s)
        assert trace.count(EventKind.TARGETS_RELOCATED) == expected

    def test_events_time_ordered(self):
        world, trace = traced_world()
        world.run()
        times = [e.time_s for e in trace.events]
        assert times == sorted(times)

    def test_series_sampled(self):
        world, trace = traced_world()
        world.run()
        for name in ("coverage", "nonfunctional", "operational", "backlog"):
            times, values = trace.series_arrays(name)
            assert len(times) > 10
            assert np.all(np.diff(times) >= 0)

    def test_rv_trail_matches_recharges(self):
        world, trace = traced_world()
        world.run()
        trail = trace.rv_trail(0)
        recharged = trace.of_kind(EventKind.NODE_RECHARGED)
        assert len(trail) == len(recharged)

    def test_latencies_match_summary(self):
        world, trace = traced_world()
        summary = world.run()
        lats = [l for _, l in trace.request_latencies()]
        if lats:
            assert np.mean(lats) == pytest.approx(summary.mean_request_latency_s, rel=1e-6)

    def test_summary_counts(self):
        world, trace = traced_world()
        world.run()
        counts = trace.summary_counts()
        assert counts["node_recharged"] == trace.count(EventKind.NODE_RECHARGED)

    def test_tracing_does_not_change_results(self):
        """A traced run and an untraced run are bit-identical."""
        world_t, _ = traced_world(seed=5)
        s1 = world_t.run()
        cfg = world_t.cfg
        s2 = World(cfg).run()
        assert s1.as_dict() == s2.as_dict()
