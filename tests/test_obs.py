"""Tests for the repro.obs telemetry layer.

Covers the derived instrument snapshot, the built-in exporters, the run
manifest, the telemetry runner glue, and the report renderer.
"""

import csv
import json
import re

import pytest

from repro.obs import (
    EventKind,
    EventLog,
    RunManifest,
    TelemetryBundle,
    config_digest,
    git_revision,
)
from repro.obs.report import format_report, load_report
from repro.registry import EXPORTERS
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
    ``instruments`` block of a manifest and of every exporter."""

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


def histogram(*values):
    """One snapshot histogram row over ``values``."""
    return {"count": len(values), "total": sum(values), "min": min(values),
            "max": max(values), "mean": sum(values) / len(values)}


def timer(*durations):
    """One snapshot timer row over ``durations`` (seconds)."""
    h = histogram(*durations)
    return {"count": h["count"], "total_s": h["total"], "min_s": h["min"],
            "max_s": h["max"], "mean_s": h["mean"]}


def sample_bundle():
    snapshot = {
        "counters": {"fleet.sorties": 3.0},
        "gauges": {"gate.backlog": 2.0},
        "histograms": {"fleet.delivered_j": histogram(120.0)},
        "timers": {"energy.recompute": timer(0.001)},
    }
    log = EventLog()
    log.emit(1.0, EventKind.NODE_RECHARGED, 4, 80.0)
    log.sample(0.0, "coverage", 0.9)
    log.sample(5.0, "coverage", 0.8)
    return TelemetryBundle(
        instruments=snapshot,
        summary={"traveling_energy_j": 42.0},
        config={"seed": 1},
        log=log,
    )


class TestExporters:
    def test_builtins_registered(self):
        for name in ("jsonl", "prometheus", "csv", "spans", "sqlite"):
            assert name in EXPORTERS

    def test_jsonl_exporter(self, tmp_path):
        written = EXPORTERS.build("jsonl").export(tmp_path, sample_bundle())
        names = {p.name for p in written}
        assert names == {"events.jsonl", "metrics.jsonl"}
        metric_lines = [json.loads(line) for line in
                        (tmp_path / "metrics.jsonl").read_text().splitlines()]
        kinds = {r["instrument"] for r in metric_lines}
        assert kinds == {"counter", "gauge", "histogram", "timer"}
        by_name = {r["name"]: r for r in metric_lines}
        assert by_name["fleet.sorties"]["value"] == 3.0

    def test_jsonl_events_round_trip(self, tmp_path):
        bundle = sample_bundle()
        EXPORTERS.build("jsonl").export(tmp_path, bundle)
        back = EventLog.read_jsonl(tmp_path / "events.jsonl")
        assert back.events == bundle.log.events
        assert back.series == bundle.log.series

    def test_jsonl_without_trace(self, tmp_path):
        bundle = sample_bundle()
        bundle.log = None
        written = EXPORTERS.build("jsonl").export(tmp_path, bundle)
        assert {p.name for p in written} == {"metrics.jsonl"}

    def test_prometheus_exporter(self, tmp_path):
        EXPORTERS.build("prometheus").export(tmp_path, sample_bundle())
        text = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE repro_fleet_sorties_total counter" in text
        assert "repro_fleet_sorties_total 3" in text
        assert "repro_gate_backlog 2" in text
        assert "repro_energy_recompute_seconds_count 1" in text
        assert 'repro_fleet_delivered_j_bucket{le="+Inf"} 1' in text
        assert "repro_fleet_delivered_j_sum 120" in text
        assert "repro_summary_traveling_energy_j 42" in text
        # every non-comment line is "name value"
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, value = line.split()
                float(value)

    def test_csv_exporter(self, tmp_path):
        EXPORTERS.build("csv").export(tmp_path, sample_bundle())
        with open(tmp_path / "series.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["series", "time_s", "value"]
        assert ["coverage", "0.0", "0.9"] in rows
        with open(tmp_path / "instruments.csv", newline="") as f:
            inst = list(csv.reader(f))
        assert inst[0] == ["kind", "name", "field", "value"]
        assert ["counter", "fleet.sorties", "value", "3.0"] in inst

    def test_custom_exporter_pluggable(self, tmp_path):
        class OneFile:
            def export(self, out_dir, bundle):
                p = out_dir / "one.txt"
                p.write_text(str(len(bundle.summary)))
                return [p]

        EXPORTERS.register("test-onefile", OneFile)
        try:
            _, manifest = run_with_telemetry(
                tiny_config(sim_time_s=0.05 * DAY_S), tmp_path,
                exporters=["test-onefile"],
            )
            assert manifest.files == {"test-onefile": ["one.txt"]}
            assert (tmp_path / "one.txt").is_file()
        finally:
            EXPORTERS.unregister("test-onefile")


# Exposition format 0.0.4: a sample line is "name[{labels}] value", the
# name from this grammar.  The lint below holds for arbitrary
# instrument names; histogram ``_bucket`` series repeat the same name
# with distinct ``le`` labels, so uniqueness applies to (name, labels).
_PROM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})? (?P<value>\S+)$"
)


class TestPrometheusSanitization:
    def weird_bundle(self):
        snapshot = {
            "counters": {
                "fleet.rv-0.sorties": 1.0,
                "fleet_rv_0.sorties": 2.0,  # collides after sanitizing
            },
            "gauges": {"0weird..na me!": 5.0},
            "histograms": {"héllo.latency": histogram(0.5)},
            "timers": {"phase one/two": timer(0.001)},
        }
        return TelemetryBundle(instruments=snapshot, summary={"objective-j": 1.0})

    def test_sanitizes_dots_and_dashes(self):
        from repro.obs.exporters import _prom_name

        assert _prom_name("fleet.rv-0.delivered-j") == "repro_fleet_rv_0_delivered_j"
        assert _prom_name("a..b--c") == "repro_a_b_c"
        assert _prom_name("0starts.with.digit") == "repro_0starts_with_digit"

    def test_collisions_get_suffixes(self, tmp_path):
        EXPORTERS.build("prometheus").export(tmp_path, self.weird_bundle())
        text = (tmp_path / "metrics.prom").read_text()
        assert "repro_fleet_rv_0_sorties_total 1" in text
        assert "repro_fleet_rv_0_sorties_total_dup2 2" in text

    def test_exposition_grammar(self, tmp_path):
        EXPORTERS.build("prometheus").export(tmp_path, self.weird_bundle())
        seen = set()
        for line in (tmp_path / "metrics.prom").read_text().splitlines():
            if not line or line.startswith("#"):
                continue
            m = _PROM_SAMPLE_RE.match(line)
            assert m, f"unparseable sample line {line!r}"
            assert _PROM_NAME_RE.match(m.group("name")), m.group("name")
            key = (m.group("name"), m.group("labels"))
            assert key not in seen, f"duplicate sample {key}"
            seen.add(key)
            float(m.group("value"))
        assert seen

    def test_help_and_type_comments_present(self, tmp_path):
        EXPORTERS.build("prometheus").export(tmp_path, self.weird_bundle())
        text = (tmp_path / "metrics.prom").read_text()
        assert "# HELP repro_fleet_rv_0_sorties_total" in text
        assert "# TYPE repro_fleet_rv_0_sorties_total counter" in text
        assert "# TYPE repro_h_llo_latency histogram" in text


class TestSpansAndSqliteExporters:
    def spans_bundle(self):
        bundle = sample_bundle()
        log = bundle.log
        with log.phase("run", seed=1):
            with log.phase("tick", t=0.0):
                log.mark("sortie.assigned", rv_id=0)
        return bundle, log

    def test_spans_exporter_round_trips(self, tmp_path):
        from repro.obs import load_spans

        bundle, log = self.spans_bundle()
        written = EXPORTERS.build("spans").export(tmp_path, bundle)
        assert [p.name for p in written] == ["spans.jsonl"]
        assert load_spans(tmp_path / "spans.jsonl") == log.span_rows()

    def test_spans_exporter_skips_without_spans(self, tmp_path):
        assert EXPORTERS.build("spans").export(tmp_path, sample_bundle()) == []

    def test_sqlite_tables(self, tmp_path):
        import sqlite3

        bundle, _ = self.spans_bundle()
        written = EXPORTERS.build("sqlite").export(tmp_path, bundle)
        assert [p.name for p in written] == ["telemetry.sqlite"]
        conn = sqlite3.connect(tmp_path / "telemetry.sqlite")
        try:
            inst = dict(conn.execute(
                "SELECT name, value FROM instruments WHERE kind='counter'"
            ).fetchall())
            assert inst["fleet.sorties"] == 3.0
            summary = dict(conn.execute(
                "SELECT name, value FROM instruments WHERE kind='summary'"
            ).fetchall())
            assert summary["traveling_energy_j"] == 42.0
            spans = conn.execute(
                "SELECT span_id, parent_id, name, attrs FROM spans ORDER BY span_id"
            ).fetchall()
            assert [(r[0], r[1], r[2]) for r in spans] == [
                (1, None, "run"), (2, 1, "tick")]
            assert json.loads(spans[0][3]) == {"seed": 1}
        finally:
            conn.close()

    def test_sqlite_reexport_idempotent(self, tmp_path):
        bundle, _ = self.spans_bundle()
        EXPORTERS.build("sqlite").export(tmp_path, bundle)
        EXPORTERS.build("sqlite").export(tmp_path, bundle)
        import sqlite3

        conn = sqlite3.connect(tmp_path / "telemetry.sqlite")
        try:
            (n,) = conn.execute("SELECT COUNT(*) FROM spans").fetchone()
            assert n == 2
        finally:
            conn.close()


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
                               summary={"m": 1.0}, exporters=["jsonl"])
        back = RunManifest.from_dict(m.as_dict())
        assert back == m

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
        expected = {"manifest.json", "events.jsonl", "metrics.jsonl",
                    "metrics.prom", "series.csv", "instruments.csv",
                    "spans.jsonl"}
        assert expected <= {p.name for p in out.iterdir()}
        assert manifest.exporters == ["jsonl", "prometheus", "csv", "spans"]
        for names in manifest.files.values():
            for name in names:
                assert (out / name).is_file()

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

    def test_exporter_subset(self, tmp_path):
        _, manifest = run_with_telemetry(
            tiny_config(sim_time_s=0.05 * DAY_S), tmp_path,
            exporters=["prometheus"],
        )
        assert manifest.exporters == ["prometheus"]
        assert (tmp_path / "metrics.prom").is_file()
        assert not (tmp_path / "events.jsonl").exists()

    def test_unknown_exporter_rejected_before_running(self, tmp_path):
        with pytest.raises(ValueError, match="unknown telemetry exporter"):
            run_with_telemetry(tiny_config(), tmp_path, exporters=["nope"])
        assert not (tmp_path / "manifest.json").exists()


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
        run_with_telemetry(tiny_config(sim_time_s=0.05 * DAY_S), tmp_path,
                           exporters=["prometheus"])
        data = load_report(tmp_path)
        assert "event_counts" not in data
        assert "Telemetry report" in format_report(data)
