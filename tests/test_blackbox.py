"""Tests for the flight recorder, postmortem bundles, and replay.

Covers the ring/checkpoint mechanics of
:class:`repro.obs.BlackBoxRecorder`, bundle round-trips through
:func:`repro.obs.load_bundle` (the run's event log included, and
bundles in the older per-record-notes format), deterministic replay
from checkpoints
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
    InvariantViolation,
    MonitorSet,
    format_postmortem,
    load_bundle,
)
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


def recorded_bundle(tmp_path, name="bundle", checkpoint_every="3", **overrides):
    """Run a tiny sim with a tight checkpoint cadence; return the dir."""
    import os

    os.environ["REPRO_BLACKBOX_CHECKPOINT"] = checkpoint_every
    try:
        out = tmp_path / name
        run_with_telemetry(tiny_config(**overrides), None, postmortem=out)
        return out
    finally:
        os.environ.pop("REPRO_BLACKBOX_CHECKPOINT", None)


class TestRecorder:
    def test_ring_is_bounded(self):
        bb = BlackBoxRecorder(capacity=3, checkpoint_every=0)
        for i in range(10):
            bb.record("tick", float(i), {"state": f"d{i}"})
        rows = bb.rows()
        assert len(rows) == 3
        assert [r["seq"] for r in rows] == [8, 9, 10]
        assert bb.seq == 10  # seq keeps counting past evictions

    def test_violation_feeds_manifest(self, tmp_path):
        bb = BlackBoxRecorder(capacity=8, checkpoint_every=0)
        bb.record("tick", 0.0, {"state": "a"})
        monitors = MonitorSet(strict=False)
        monitors.check_battery_bounds(np.array([-5.0]), 1.0, t=0.0)
        bundle = load_bundle(bb.flush(tmp_path / "b", reason="violation", monitors=monitors))
        violations = bundle.manifest["violations"]
        assert [v["invariant"] for v in violations] == ["battery_bounds"]
        assert bundle.manifest["monitors"]["strict"] is False
        # The records carry digests only; the violation lives in the manifest.
        assert set(bundle.records[0]) == {"seq", "kind", "t", "digests"}

    def test_checkpoint_cadence(self):
        bb = BlackBoxRecorder(capacity=64, checkpoint_every=4)
        assert not bb.should_checkpoint()
        for i in range(4):
            bb.record("tick", float(i), {"state": "d"})
        assert bb.should_checkpoint()
        bb.add_checkpoint({"seq": bb.seq, "t": 3.0, "arrays": {}, "scalars": {}})
        assert not bb.should_checkpoint()

    def test_checkpoint_deque_is_bounded(self):
        bb = BlackBoxRecorder(capacity=8, checkpoint_every=1, max_checkpoints=2)
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
        assert m["records"] == len(bundle.records) > 0
        assert m["seed"] == TINY["seed"]
        assert m["config_digest"]
        assert "engine" not in m
        # Every record carries the combined digest; decision events and
        # the periodic full-digest records also name each field.
        rec = bundle.records[-1]
        assert rec["kind"] in ("tick", "dispatch", "relocate")
        assert "state" in rec["digests"] and rec["rng"]
        full = [r for r in bundle.records if "levels_j" in r["digests"]]
        assert full and all("state" in r["digests"] for r in bundle.records)
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
        assert "flight record(s)" in text
        assert "repro replay" in text
        assert "event(s) of the run's log" in text

    def test_bundle_events_are_the_telemetry_bytes(self, tmp_path):
        tel, pm = tmp_path / "tel", tmp_path / "pm"
        run_with_telemetry(tiny_config(), tel, postmortem=pm)
        events = (pm / "events.jsonl").read_bytes()
        assert events and events == (tel / "events.jsonl").read_bytes()
        assert (pm / "spans.jsonl").is_file()

    def test_bundle_in_the_per_record_notes_format_still_reads(self, tmp_path, capsys):
        """Bundles written before the event log joined them carry
        component notes on their records and no ``events.jsonl``; they
        still render and replay bit-identically."""
        out = recorded_bundle(tmp_path)
        (out / "events.jsonl").unlink()
        records_path = out / "records.jsonl"
        rows = [json.loads(l) for l in records_path.read_text().splitlines()]
        for row in rows:
            row.update(
                erc_released=[1, 2], erp=0.5, handoffs=3,
                dispatched={"0": [1, 2]},
                violations=[{"invariant": "x", "t": row["t"], "message": "m"}],
            )
        records_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["postmortem", str(out)]) == 0
        assert "flight record(s)" in capsys.readouterr().out
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
        out = recorded_bundle(tmp_path, checkpoint_every="0")
        bundle = load_bundle(out)
        assert not bundle.checkpoints
        result = replay_bundle(bundle)
        assert result.ok and result.start_seq == 0

    def test_to_tick_limits_the_horizon(self, tmp_path):
        out = recorded_bundle(tmp_path, checkpoint_every="0")
        bundle = load_bundle(out)
        target = bundle.records[2]["seq"]
        result = replay_bundle(bundle, to_tick=target)
        assert result.ok and result.target_seq == target
        assert result.compared == target

    def test_tampered_digest_diverges(self, tmp_path):
        out = recorded_bundle(tmp_path)
        records_path = out / "records.jsonl"
        rows = [json.loads(l) for l in records_path.read_text().splitlines()]
        # Tamper a per-field digest on the last full-digest record.
        victim = max(i for i, r in enumerate(rows) if "levels_j" in r["digests"])
        rows[victim]["digests"]["levels_j"] = "0" * 64
        records_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
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
        assert bundle.records[-1]["kind"] == "abort"

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
        monkeypatch.setenv("REPRO_BLACKBOX_CHECKPOINT", "3")
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
        records_path = out / "records.jsonl"
        rows = [json.loads(l) for l in records_path.read_text().splitlines()]
        rows[-1]["digests"]["state"] = "f" * 64
        records_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
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
