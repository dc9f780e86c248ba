"""Tests for the repro.obs telemetry layer.

Covers the derived instrument snapshot, the event log's telemetry files,
the run manifest, the telemetry runner glue, and the report renderer.
"""

import json

import pytest

from repro.obs import (
    EventKind,
    EventLog,
    RunManifest,
    config_digest,
    git_revision,
)
from repro.obs.report import format_report, load_report
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.runner import run_simulation, run_with_telemetry

TINY = dict(
    n_sensors=40,
    n_targets=3,
    n_rvs=1,
    side_length_m=60.0,
    sim_time_s=0.25 * DAY_S,
    battery_capacity_j=400.0,
    initial_charge_range=(0.5, 0.8),
    dispatch_period_s=1800.0,
    seed=42,
)


def tiny_config(**overrides):
    params = dict(TINY)
    params.update(overrides)
    return SimulationConfig(**params)


class TestInstruments:
    """The instrument snapshot :meth:`EventLog.snapshot` derives: the
    ``instruments`` block of a manifest."""

    def test_counter(self):
        log = EventLog()
        log.emit(0.0, EventKind.ROTATION, 0, 2.0)
        log.emit(1.0, EventKind.ROTATION, 0, 1.5)
        assert log.snapshot()["counters"]["clusters.handoffs"] == 3.5
        log.emit(2.0, EventKind.ROTATION, 0, -1.0)  # a counter never decreases
        with pytest.raises(ValueError, match="clusters.handoffs"):
            log.snapshot()

    def test_gauge(self):
        log = EventLog()
        log.sample(0.0, "backlog", 7)
        log.sample(1.0, "backlog", 3)
        assert log.snapshot()["gauges"] == {"gate.backlog": 3.0}

    def test_histogram_summary(self):
        log = EventLog()
        assert log.snapshot()["histograms"]["fleet.sortie_stops"] == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        for stops in (1, 3, 2):
            log.emit(0.0, EventKind.SORTIE_ASSIGNED, 0, stops)
        s = log.snapshot()["histograms"]["fleet.sortie_stops"]
        assert s == {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}
        # Integer event values still export as floats ("1.0", not "1").
        assert [type(v) for v in s.values()] == [int, float, float, float, float]

    def test_timer_records_durations(self):
        log = EventLog()
        for _ in range(2):
            with log.phase("energy.recompute"):
                pass
        t = log.snapshot()["timers"]["energy.recompute"]
        assert t["count"] == 2
        assert t["total_s"] >= 0.0
        assert t["min_s"] <= t["max_s"]

    def test_timer_reentrant(self):
        log = EventLog()
        with log.phase("energy.recompute"):
            with log.phase("energy.recompute"):
                pass
        assert log.snapshot()["timers"]["energy.recompute"]["count"] == 2

    def test_snapshot_groups_by_kind(self):
        snap = EventLog().snapshot()
        assert list(snap) == ["counters", "gauges", "histograms", "timers"]
        assert next(iter(snap["counters"])) == "monitors.violations"
        assert all(type(v) is float for v in snap["counters"].values())
        assert list(snap["timers"]["world.run"]) == [
            "count", "total_s", "min_s", "max_s", "mean_s"]

    def test_snapshot_json_safe(self):
        log = EventLog()
        log.emit(0.0, EventKind.SORTIE_ASSIGNED, 0, 2)
        log.mark("invariant.violation", invariant="battery_bounds")
        snap = log.snapshot(n_rvs=1)
        assert list(snap["counters"])[-3:] == [
            "fleet.rv0.sorties", "fleet.rv0.delivered_j",
            "monitors.battery_bounds.violations"]
        assert json.loads(json.dumps(snap)) == snap


def sample_log():
    log = EventLog()
    log.emit(1.0, EventKind.NODE_RECHARGED, 4, 80.0)
    log.sample(0.0, "coverage", 0.9)
    log.sample(5.0, "coverage", 0.8)
    return log


class TestLogFiles:
    """:meth:`EventLog.write_files`: the log's files of a telemetry
    directory."""

    def test_writes_the_three_files(self, tmp_path):
        names = sample_log().write_files(tmp_path)
        assert names == ["events.jsonl", "spans.jsonl"]
        RunManifest.create(config={}, seed=0, wall_time_s=0.0, files=names).write(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "events.jsonl", "manifest.json", "spans.jsonl"]
        # A log that opened no phase still writes its (empty) span file.
        assert (tmp_path / "spans.jsonl").read_text() == ""

    def test_events_jsonl_round_trip(self, tmp_path):
        log = sample_log()
        log.write_files(tmp_path)
        back = EventLog.read_jsonl(tmp_path / "events.jsonl")
        assert back.events == log.events
        assert back.series == log.series

    def test_spans_jsonl_round_trips(self, tmp_path):
        from repro.obs import load_spans

        log = sample_log()
        with log.phase("run", seed=1):
            with log.phase("tick", t=0.0):
                log.mark("sortie.assigned", rv_id=0)
        log.write_files(tmp_path)
        text = (tmp_path / "spans.jsonl").read_text()
        assert load_spans(tmp_path / "spans.jsonl") == log.span_rows()
        assert "".join(line + "\n" for line in log.span_lines()) == text


class TestManifest:
    def test_config_digest_order_independent(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest({"x": 2, "y": [1, 2]})
        assert len(config_digest(a)) == 64

    def test_git_revision_in_repo(self):
        rev = git_revision(__file__)
        if rev is not None:
            assert len(rev) == 40
            int(rev, 16)

    def test_git_revision_outside_repo(self, tmp_path):
        assert git_revision(tmp_path) is None

    def test_round_trip(self):
        m = RunManifest.create(config={"seed": 3}, seed=3, wall_time_s=1.5,
                               summary={"m": 1.0}, files=["events.jsonl"])
        back = RunManifest.from_dict(m.as_dict())
        assert back == m

    def test_from_dict_reads_per_exporter_files(self):
        m = RunManifest.create(config={}, seed=0, wall_time_s=0.0)
        data = m.as_dict()
        data["exporters"] = ["jsonl", "prometheus"]
        data["files"] = {"jsonl": ["events.jsonl", "metrics.jsonl"],
                         "prometheus": ["metrics.prom"]}
        back = RunManifest.from_dict(data)
        assert back.files == ["events.jsonl", "metrics.jsonl", "metrics.prom"]

    @pytest.mark.parametrize("data, match", [
        ([], "JSON object"),
        ({"seed": 1}, "lacks created_utc"),
    ])
    def test_from_dict_rejects_non_manifests(self, data, match):
        with pytest.raises(ValueError, match=match):
            RunManifest.from_dict(data)

    def test_load_names_a_truncated_file(self, tmp_path):
        m = RunManifest.create(config={}, seed=0, wall_time_s=0.0)
        path = m.write(tmp_path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(ValueError, match="manifest.json"):
            RunManifest.load(tmp_path)

    def test_from_dict_ignores_unknown_keys(self):
        m = RunManifest.create(config={}, seed=0, wall_time_s=0.0)
        data = m.as_dict()
        data["future_field"] = "whatever"
        assert RunManifest.from_dict(data) == m

    def test_write_load_directory_convention(self, tmp_path):
        m = RunManifest.create(config={"seed": 1}, seed=1, wall_time_s=0.1)
        path = m.write(tmp_path)
        assert path.name == "manifest.json"
        assert RunManifest.load(tmp_path) == m
        assert RunManifest.load(path) == m


class TestRunWithTelemetry:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("telemetry")
        summary, manifest = run_with_telemetry(tiny_config(), out)
        return out, summary, manifest

    def test_all_files_written(self, run_dir):
        out, _, manifest = run_dir
        assert {p.name for p in out.iterdir()} == {
            "manifest.json", "events.jsonl", "spans.jsonl"}
        assert manifest.files == ["events.jsonl", "spans.jsonl"]

    def test_manifest_provenance(self, run_dir):
        out, _, manifest = run_dir
        loaded = RunManifest.load(out)
        assert loaded.config_digest == manifest.config_digest
        assert loaded.seed == TINY["seed"]
        assert loaded.wall_time_s > 0
        assert loaded.config["n_sensors"] == TINY["n_sensors"]

    def test_phase_timers_cover_all_components(self, run_dir):
        _, _, manifest = run_dir
        timers = manifest.instruments["timers"]
        for name in ("energy.recompute", "energy.advance", "clusters.rebuild",
                     "gate.check", "fleet.dispatch", "scheduler.assign",
                     "world.run"):
            assert name in timers, name
            assert timers[name]["count"] >= 1

    def test_summary_bit_identical_to_plain_run(self, run_dir):
        _, summary, _ = run_dir
        plain = run_simulation(tiny_config())
        assert summary.as_dict() == plain.as_dict()

    def test_events_jsonl_parses(self, run_dir):
        out, _, _ = run_dir
        back = EventLog.read_jsonl(out / "events.jsonl")
        assert len(back.events) > 0
        assert "coverage" in back.series



class TestReport:
    def test_load_and_format(self, tmp_path):
        run_with_telemetry(tiny_config(sim_time_s=0.05 * DAY_S), tmp_path)
        data = load_report(tmp_path)
        assert isinstance(data["manifest"], RunManifest)
        assert data["event_counts"]
        text = format_report(data)
        assert "Telemetry report" in text
        assert "Phase timings" in text
        assert "fleet.dispatch" in text
        assert "Span tree" in text
        assert "run  x1" in text

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_report(tmp_path)

    def test_format_without_events(self, tmp_path):
        run_with_telemetry(tiny_config(sim_time_s=0.05 * DAY_S), tmp_path)
        (tmp_path / "events.jsonl").unlink()
        data = load_report(tmp_path)
        assert "event_counts" not in data
        assert data["missing"] == ["events.jsonl"]
        assert "Telemetry report" in format_report(data)
