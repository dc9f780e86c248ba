"""Tests for the flight recorder, postmortem bundles, and replay.

Covers the digest rows and checkpoint mechanics of
:class:`repro.obs.BlackBoxRecorder`, bundle round-trips through
:func:`repro.obs.load_bundle` (the window of the run's event log, and
bundles in the older ``records.jsonl`` and per-record-notes formats),
deterministic replay from checkpoints
(:mod:`repro.sim.replay`), the forced-violation acceptance path
(``REPRO_MONITOR_ATOL_J`` + strict monitors), and the ``repro
postmortem`` / ``repro replay`` CLI exit codes.  Also pins the
``repro report`` graceful-degradation behavior for partial archives.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.obs import (
    BlackBoxRecorder,
    EventLog,
    InvariantViolation,
    MonitorSet,
    blackbox,
    format_postmortem,
    load_bundle,
)
from repro.obs.blackbox import digest_array
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.replay import format_replay, replay_bundle
from repro.sim.runner import run_simulation, run_with_telemetry

TINY = dict(
    n_sensors=30,
    n_targets=2,
    n_rvs=1,
    side_length_m=50.0,
    sim_time_s=0.05 * DAY_S,
    battery_capacity_j=400.0,
    initial_charge_range=(0.5, 0.8),
    dispatch_period_s=1800.0,
    seed=5,
)


def tiny_config(**overrides):
    return SimulationConfig(**dict(TINY, **overrides))


def recorded_bundle(tmp_path, name="bundle", checkpoint_every=3, **overrides):
    """Run a tiny sim with a tight checkpoint cadence; return the dir."""
    out = tmp_path / name
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blackbox, "CHECKPOINT_EVERY", checkpoint_every)
        run_with_telemetry(tiny_config(**overrides), None, postmortem=out)
    return out


def read_lines(out):
    return [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]


def digest_rows(out):
    """The digest rows of a bundle's ``events.jsonl``."""
    return [row for row in read_lines(out) if row["type"] == "digest"]


def write_digest_rows(out, rows):
    """Replace the digest rows of a bundle's ``events.jsonl``."""
    kept = [row for row in read_lines(out) if row["type"] != "digest"]
    (out / "events.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in kept + rows)
    )


def to_records_jsonl(out):
    """Rewrite a bundle into the format that kept its digests in a
    ``records.jsonl`` ring (every digest, ``state`` included, in one
    ``digests`` dict, plus wall-clock and backlog notes) beside an
    ``events.jsonl`` without digest rows."""
    records = []
    for row in digest_rows(out):
        record = {
            "seq": row["seq"], "kind": row["kind"], "t": row["t"],
            "digests": dict(row.get("fields", {}), state=row["state"]),
            "rng": row["rng"], "wall_ms": 0.1, "backlog": 0, "events_fired": 1,
        }
        if "error" in row:
            record["error"] = row["error"]
        records.append(record)
    write_digest_rows(out, [])
    (out / "records.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )
    return records


RNG_STATE = np.random.default_rng(0).bit_generator.state


def feed(bb, n, kind="tick"):
    for i in range(n):
        bb.record(kind, float(i), {"x": np.full(3, float(i))}, RNG_STATE)


class TestRecorder:
    def test_rows_go_to_the_log(self, tmp_path):
        log = EventLog()
        bb = BlackBoxRecorder(checkpoint_every=0, log=log)
        feed(bb, 16)
        feed(bb, 1, kind="dispatch")
        assert bb.log is log and [r["seq"] for r in log.digests] == list(range(1, 18))
        # Per-field digests on every 16th row and on decision events.
        assert [r["seq"] for r in log.digests if "fields" in r] == [16, 17]
        assert list(log.digests[0]) == ["type", "seq", "t", "kind", "state", "rng"]
        assert log.digests[15]["fields"] == {"x": digest_array(np.full(3, 15.0))}
        # The rows follow the samples in events.jsonl and read back.
        log.sample(0.0, "coverage", 1.0)
        lines = log.write_jsonl(tmp_path / "events.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["type"] == "sample"
        assert EventLog.read_jsonl(tmp_path / "events.jsonl").digests == log.digests
        # A recorder built without a log keeps its rows in its own.
        assert BlackBoxRecorder().log is not log

    def test_violation_feeds_manifest(self, tmp_path):
        bb = BlackBoxRecorder(checkpoint_every=0)
        feed(bb, 1)
        monitors = MonitorSet(strict=False)
        monitors.check_battery_bounds(np.array([-5.0]), 1.0, t=0.0)
        bundle = load_bundle(bb.flush(tmp_path / "b", reason="violation", monitors=monitors))
        violations = bundle.manifest["violations"]
        assert [v["invariant"] for v in violations] == ["battery_bounds"]
        assert bundle.manifest["monitors"]["strict"] is False
        # The rows carry digests only; the violation lives in the manifest.
        assert set(bundle.digests[0]) == {"type", "seq", "kind", "t", "state", "rng"}

    def test_checkpoint_cadence(self):
        bb = BlackBoxRecorder(checkpoint_every=4)
        assert not bb.should_checkpoint()
        feed(bb, 4)
        assert bb.should_checkpoint()
        bb.add_checkpoint({"seq": bb.seq, "t": 3.0, "arrays": {}, "scalars": {}})
        assert not bb.should_checkpoint()

    def test_checkpoint_deque_is_bounded(self):
        bb = BlackBoxRecorder(checkpoint_every=1, max_checkpoints=2)
        for i in range(5):
            bb.add_checkpoint({"seq": i, "t": 0.0, "arrays": {}, "scalars": {}})
        assert [c["seq"] for c in bb.checkpoints] == [3, 4]


class TestTrajectoryInvariance:
    def test_recording_never_touches_the_trajectory(self, tmp_path):
        cfg = tiny_config()
        plain = run_simulation(cfg)
        recorded, manifest = run_with_telemetry(cfg, None, postmortem=tmp_path / "b")
        assert plain.as_dict() == recorded.as_dict()
        assert manifest is None and not (tmp_path / "b" / "manifest.json").exists()


class TestBundleRoundTrip:
    def test_flush_and_load(self, tmp_path):
        out = recorded_bundle(tmp_path)
        bundle = load_bundle(out)
        m = bundle.manifest
        assert m["reason"] == "requested"
        assert m["seq"] == bundle.digests[-1]["seq"]
        assert m["seed"] == TINY["seed"]
        assert m["config_digest"]
        assert "engine" not in m
        # Every row carries the combined digest; decision events and
        # the periodic full-digest rows also name each field.
        row = bundle.digests[-1]
        assert row["kind"] in ("tick", "dispatch", "relocate")
        assert row["state"] and row["rng"]
        assert any("levels_j" in r.get("fields", {}) for r in bundle.digests)
        # Checkpoints round-trip as numpy arrays + JSON scalars.
        assert bundle.checkpoints
        ckpt = bundle.checkpoints[0]
        assert isinstance(ckpt["arrays"]["levels_j"], np.ndarray)
        assert ckpt["scalars"]["seq"] == ckpt["seq"]

    def test_missing_bundle_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "nope")

    def test_format_postmortem_renders(self, tmp_path):
        out = recorded_bundle(tmp_path)
        text = format_postmortem(load_bundle(out))
        assert "Postmortem bundle" in text
        assert "digest row(s)" in text
        assert "repro replay" in text
        assert "event(s) of the run's log" in text

    def test_bundle_events_are_the_telemetry_rows_from_the_window(self, tmp_path):
        tel, pm = tmp_path / "tel", tmp_path / "pm"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blackbox, "CHECKPOINT_EVERY", 3)
            run_with_telemetry(tiny_config(), tel, postmortem=pm)
        assert sorted(p.name for p in pm.iterdir()) == [
            "blackbox.json", "checkpoints", "config.json", "events.jsonl"]
        window_t = load_bundle(pm).checkpoints[0]["t"]
        assert window_t > 0
        lines = (tel / "events.jsonl").read_text().splitlines(keepends=True)
        window = [line for line in lines if json.loads(line)["t"] >= window_t]
        assert len(window) < len(lines)
        assert (pm / "events.jsonl").read_text() == "".join(window)
        assert any('"type": "digest"' in line for line in window)

    def test_bundle_in_the_records_jsonl_format_still_reads(self, tmp_path, capsys):
        """Bundles written when the digests lived in a ``records.jsonl``
        ring read those records as their digest rows, and still render
        and replay bit-identically."""
        out = recorded_bundle(tmp_path)
        rows = load_bundle(out).digests
        to_records_jsonl(out)
        assert not digest_rows(out)
        assert load_bundle(out).digests == rows
        assert main(["postmortem", str(out)]) == 0
        assert "digest row(s)" in capsys.readouterr().out
        assert main(["replay", str(out)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_bundle_in_the_per_record_notes_format_still_reads(self, tmp_path, capsys):
        """Bundles written before the event log joined them carry
        component notes on their records and no ``events.jsonl``; they
        still render and replay bit-identically."""
        out = recorded_bundle(tmp_path)
        rows = to_records_jsonl(out)
        (out / "events.jsonl").unlink()
        for row in rows:
            row.update(
                erc_released=[1, 2], erp=0.5, handoffs=3,
                dispatched={"0": [1, 2]},
                violations=[{"invariant": "x", "t": row["t"], "message": "m"}],
            )
        (out / "records.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["postmortem", str(out)]) == 0
        assert "digest row(s)" in capsys.readouterr().out
        assert main(["replay", str(out)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_legacy_engine_block_still_renders_and_replays(self, tmp_path):
        """Bundles written before the batched engine was removed carry
        an ``engine`` block in ``blackbox.json``; they still load,
        render and replay bit-identically."""
        out = recorded_bundle(tmp_path)
        path = out / "blackbox.json"
        manifest = json.loads(path.read_text())
        manifest["engine"] = {"batch": False, "batch_debug": False}
        path.write_text(json.dumps(manifest))
        bundle = load_bundle(out)
        assert "Postmortem bundle" in format_postmortem(bundle)
        assert replay_bundle(bundle).ok


class TestReplay:
    def test_replay_from_checkpoint_is_bit_identical(self, tmp_path):
        out = recorded_bundle(tmp_path)
        bundle = load_bundle(out)
        result = replay_bundle(bundle)
        assert result.ok, result.divergences
        assert result.start_seq > 0  # restored mid-run, not genesis
        assert result.compared > 0
        assert "bit-identical" in format_replay(result)

    def test_replay_from_genesis(self, tmp_path):
        out = recorded_bundle(tmp_path, checkpoint_every=0)
        bundle = load_bundle(out)
        assert not bundle.checkpoints
        result = replay_bundle(bundle)
        assert result.ok and result.start_seq == 0

    def test_to_tick_limits_the_horizon(self, tmp_path):
        out = recorded_bundle(tmp_path, checkpoint_every=0)
        bundle = load_bundle(out)
        target = bundle.digests[2]["seq"]
        result = replay_bundle(bundle, to_tick=target)
        assert result.ok and result.target_seq == target
        assert result.compared == target

    def test_tampered_digest_diverges(self, tmp_path):
        out = recorded_bundle(tmp_path)
        rows = digest_rows(out)
        # Tamper a per-field digest on the last full-digest row.
        victim = max(i for i, r in enumerate(rows) if "fields" in r)
        rows[victim]["fields"]["levels_j"] = "0" * 64
        write_digest_rows(out, rows)
        result = replay_bundle(load_bundle(out), to_tick=rows[victim]["seq"])
        assert not result.ok
        fields = {d["field"] for d in result.divergences}
        assert "levels_j" in fields
        assert "DIVERGED" in format_replay(result)


class TestForcedViolation:
    """The acceptance path: a forced monitor violation produces a
    bundle from which replay deterministically reproduces the violating
    tick."""

    @pytest.fixture()
    def violation_bundle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MONITOR_ATOL_J", "-1")
        out = tmp_path / "viol"
        with pytest.raises(InvariantViolation):
            run_with_telemetry(tiny_config(), None, postmortem=out, strict=True)
        monkeypatch.delenv("REPRO_MONITOR_ATOL_J")
        return out

    def test_bundle_reason_and_abort_record(self, violation_bundle):
        bundle = load_bundle(violation_bundle)
        assert bundle.manifest["reason"] == "exception"
        assert "InvariantViolation" in bundle.manifest["error"]
        assert bundle.manifest["violations"]
        assert bundle.digests[-1]["kind"] == "abort"
        assert "InvariantViolation" in bundle.digests[-1]["error"]

    def test_replay_reproduces_the_violation(self, violation_bundle):
        # No REPRO_MONITOR_ATOL_J in this process: the replay arms its
        # tripwires from the bundle manifest, so it must fail the same
        # way at the same tick with the same state digest.
        result = replay_bundle(load_bundle(violation_bundle))
        assert result.ok, result.divergences
        assert result.recorded_error and "InvariantViolation" in result.recorded_error
        assert result.error and "InvariantViolation" in result.error


class TestCli:
    def test_run_postmortem_then_replay_and_render(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(blackbox, "CHECKPOINT_EVERY", 3)
        out = tmp_path / "bundle"
        cfg_path = tmp_path / "cfg.json"
        from repro.sim.serialization import config_to_dict

        cfg_path.write_text(json.dumps(config_to_dict(tiny_config())))
        assert main(["run", "--config", str(cfg_path),
                     "--postmortem", str(out)]) == 0
        capsys.readouterr()
        assert main(["replay", str(out)]) == 0
        assert "bit-identical" in capsys.readouterr().out
        assert main(["replay", str(out), "--to-tick", "5"]) == 0
        capsys.readouterr()
        assert main(["postmortem", str(out)]) == 0
        assert "Postmortem bundle" in capsys.readouterr().out

    def test_replay_exit_one_on_divergence(self, tmp_path, capsys):
        out = recorded_bundle(tmp_path)
        rows = digest_rows(out)
        rows[-1]["state"] = "f" * 64
        write_digest_rows(out, rows)
        assert main(["replay", str(out)]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_missing_bundle_exit_two(self, tmp_path, capsys):
        assert main(["postmortem", str(tmp_path / "nope")]) == 2
        assert "postmortem:" in capsys.readouterr().err
        assert main(["replay", str(tmp_path / "nope")]) == 2
        assert "replay:" in capsys.readouterr().err


class TestReportDegradation:
    """`repro report` over partial archives (satellite: graceful
    degradation instead of raising)."""

    def make_archive(self, tmp_path):
        out = tmp_path / "telemetry"
        run_with_telemetry(tiny_config(), out)
        return out

    def test_missing_listed_files_are_reported_not_fatal(self, tmp_path, capsys):
        out = self.make_archive(tmp_path)
        (out / "spans.jsonl").unlink()
        (out / "events.jsonl").unlink()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "missing from the archive" in text
        assert "spans.jsonl" in text

    def test_truncated_spans_are_tolerated(self, tmp_path, capsys):
        out = self.make_archive(tmp_path)
        spans = out / "spans.jsonl"
        # Simulate a crash mid-write: chop the final line in half.
        lines = spans.read_text().splitlines()
        spans.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        assert main(["report", str(out)]) == 0
        assert "Span tree" in capsys.readouterr().out

    def test_truly_empty_dir_still_raises(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "manifest" in capsys.readouterr().err
