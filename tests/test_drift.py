"""Tests for repro.obs.drift and the `repro drift` CLI subcommand.

Covers metric loading from telemetry directories and benchmark history
files, the tolerance comparison, the report renderer, and the CLI's
0/1/2 exit-code contract.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.obs import BlackBoxRecorder, EventLog, diff_metrics, format_drift, load_metrics
from repro.obs.drift import event_divergence, load_history_pair
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.runner import run_with_telemetry
from repro.sim.world import World

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


def telemetry_dir(tmp_path, name, **overrides):
    out = tmp_path / name
    run_with_telemetry(SimulationConfig(**dict(TINY, **overrides)), out)
    return out


def make_bench(tmp_path, rows):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({"latest": rows[-1], "history": rows}))
    return path


class TestLoadMetrics:
    def test_telemetry_directory(self, tmp_path):
        out = telemetry_dir(tmp_path, "a")
        metrics = load_metrics(out)
        assert "summary.traveling_energy_j" in metrics
        assert any(k.startswith("counter.") for k in metrics)
        # Wall-clock timers are machine noise, never compared.
        assert not any("timer" in k or k.endswith("_s.total") for k in metrics)
        assert all(isinstance(v, float) for v in metrics.values())

    def test_bench_file_uses_latest_history_row(self, tmp_path):
        path = make_bench(tmp_path, [{"speedup": 2.0}, {"speedup": 3.0,
                                                        "label": "text"}])
        assert load_metrics(path) == {"bench.speedup": 3.0}

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_metrics(tmp_path / "nope")

    def test_dir_without_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            load_metrics(tmp_path)

    def test_history_pair(self, tmp_path):
        path = make_bench(tmp_path, [{"v": 1.0}, {"v": 2.0}, {"v": 3.0}])
        a, b = load_history_pair(path)
        assert a == {"bench.v": 2.0} and b == {"bench.v": 3.0}

    def test_history_pair_needs_two_rows(self, tmp_path):
        path = make_bench(tmp_path, [{"v": 1.0}])
        with pytest.raises(ValueError, match="need at least 2"):
            load_history_pair(path)


class TestDiffMetrics:
    def test_identical_is_clean(self):
        m = {"x": 1.0, "y": 2.5}
        rows = diff_metrics(m, dict(m))
        assert all(r["status"] == "ok" for r in rows)

    def test_tolerance_boundary(self):
        rows = diff_metrics({"x": 100.0}, {"x": 104.0}, rtol=0.05, atol=0.0)
        assert rows[0]["status"] == "ok"
        rows = diff_metrics({"x": 100.0}, {"x": 106.0}, rtol=0.05, atol=0.0)
        assert rows[0]["status"] == "drift"
        assert rows[0]["delta"] == pytest.approx(6.0)

    def test_one_sided_metrics_always_drift(self):
        rows = diff_metrics({"x": 1.0, "only_a": 2.0}, {"x": 1.0, "only_b": 3.0})
        by_metric = {r["metric"]: r["status"] for r in rows}
        assert by_metric == {"x": "ok", "only_a": "only_a", "only_b": "only_b"}

    def test_drifted_rows_sort_first(self):
        rows = diff_metrics({"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 9.0})
        assert [r["metric"] for r in rows] == ["b", "a"]

    def test_ignore_patterns_drop_metrics(self):
        # One-sided-by-design metrics (the SoA alloc counter against a
        # reference-engine run) can be excluded from the comparison.
        a = {"x": 1.0, "counter.sim.soa.alloc": 15.0}
        b = {"x": 1.0}
        rows = diff_metrics(a, b, ignore=["counter.sim.soa.*"])
        assert [r["metric"] for r in rows] == ["x"]
        assert rows[0]["status"] == "ok"
        # A pattern that matches nothing changes nothing.
        rows = diff_metrics(a, b, ignore=["nomatch.*"])
        assert {r["metric"] for r in rows} == {"x", "counter.sim.soa.alloc"}

    def test_format_verdict(self):
        rows = diff_metrics({"x": 1.0}, {"x": 1.0})
        assert "no drift across 1 metric(s)" in format_drift(rows)
        rows = diff_metrics({"x": 1.0}, {"x": 9.0})
        text = format_drift(rows, label_a="left", label_b="right")
        assert "1 metric(s) drifted out of 1 compared" in text
        assert "left" in text and "right" in text


class TestDriftCli:
    def test_identical_runs_exit_zero(self, tmp_path, capsys):
        a = telemetry_dir(tmp_path, "a")
        b = telemetry_dir(tmp_path, "b")
        assert main(["drift", str(a), str(b)]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_different_seeds_exit_one(self, tmp_path, capsys):
        a = telemetry_dir(tmp_path, "a")
        b = telemetry_dir(tmp_path, "b", seed=99)
        assert main(["drift", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "drift" in out

    def test_missing_path_exit_two(self, tmp_path, capsys):
        assert main(["drift", str(tmp_path / "missing")]) == 2
        assert "drift:" in capsys.readouterr().err

    def test_single_bench_file_diffs_history(self, tmp_path, capsys):
        path = make_bench(tmp_path, [{"speedup": 2.0}, {"speedup": 2.01}])
        assert main(["drift", str(path)]) == 0
        path2 = make_bench(tmp_path, [{"speedup": 2.0}, {"speedup": 4.0}])
        assert main(["drift", str(path2)]) == 1
        out = capsys.readouterr().out
        assert "bench.speedup" in out

    def test_tolerance_flags(self, tmp_path):
        a = telemetry_dir(tmp_path, "a")
        b = telemetry_dir(tmp_path, "b", seed=99)
        # An absurdly loose tolerance turns every delta into "ok".
        assert main(["drift", str(a), str(b), "--rtol", "1e9"]) == 0

    def test_all_flag_lists_ok_rows(self, tmp_path, capsys):
        a = telemetry_dir(tmp_path, "a")
        b = telemetry_dir(tmp_path, "b")
        assert main(["drift", str(a), str(b), "--all"]) == 0
        out = capsys.readouterr().out
        assert "summary.traveling_energy_j" in out


class TestDriftIgnoreCli:
    """Exit-code semantics of ``repro drift --ignore GLOB``.

    The contract: 0 = nothing drifted among the *compared* metrics,
    1 = drift among the compared metrics, 2 = inputs unusable.
    ``--ignore`` narrows what is compared — it must be able to turn a
    1 into a 0, never into a 2.
    """

    def test_ignore_silences_matching_drift(self, tmp_path):
        # Different seeds drift in every summary.* metric; ignoring the
        # whole drifting families flips the verdict to clean.
        a = telemetry_dir(tmp_path, "a")
        b = telemetry_dir(tmp_path, "b", seed=99)
        assert main(["drift", str(a), str(b)]) == 1
        assert main([
            "drift", str(a), str(b),
            "--ignore", "summary.*", "--ignore", "counter.*",
            "--ignore", "histogram.*", "--ignore", "gauge.*",
        ]) == 0

    def test_ignore_matches_both_sides(self, tmp_path, capsys):
        # A glob drops one-sided metrics from BOTH archives: neither
        # only_a nor only_b may survive as a "missing" row.
        a = make_bench(tmp_path, [{"x": 1.0, "only_a": 2.0}])
        b_path = tmp_path / "BENCH_y.json"
        b_path.write_text(json.dumps(
            {"latest": {"x": 1.0, "only_b": 3.0},
             "history": [{"x": 1.0, "only_b": 3.0}]}
        ))
        assert main(["drift", str(a), str(b_path), "--ignore", "bench.only_*"]) == 0
        out = capsys.readouterr().out
        assert "only_a" not in out and "only_b" not in out

    def test_ignore_all_is_vacuously_clean(self, tmp_path, capsys):
        a = telemetry_dir(tmp_path, "a")
        b = telemetry_dir(tmp_path, "b", seed=99)
        assert main(["drift", str(a), str(b), "--ignore", "*"]) == 0
        assert "0 metric(s)" in capsys.readouterr().out

    def test_ignore_none_keeps_drift_exit(self, tmp_path):
        a = telemetry_dir(tmp_path, "a")
        b = telemetry_dir(tmp_path, "b", seed=99)
        assert main(["drift", str(a), str(b), "--ignore", "nomatch.*"]) == 1

    def test_ignore_does_not_mask_io_errors(self, tmp_path, capsys):
        # Unusable inputs stay exit 2 even when everything is ignored.
        assert main(["drift", str(tmp_path / "missing"), "--ignore", "*"]) == 2
        assert "drift:" in capsys.readouterr().err


class TestFirstDivergingEvent:
    """`repro drift A B` names the first differing events.jsonl row."""

    def test_edited_value_is_named(self, tmp_path, capsys):
        import shutil

        a = telemetry_dir(tmp_path, "a")
        b = tmp_path / "b"
        shutil.copytree(a, b)
        lines = (b / "events.jsonl").read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if '"type": "event"' in line)
        row = json.loads(lines[index])
        edited = dict(row, value=row["value"] + 1.5)
        lines[index] = json.dumps(edited)
        (b / "events.jsonl").write_text("\n".join(lines) + "\n")
        # The manifests are untouched, so the metric verdict (and exit
        # code) stays "no drift"; the event report names the row.
        assert main(["drift", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert f"First diverging event: events.jsonl line {index + 1}" in out
        assert (
            f"A: t={row['t']} kind={row['kind']} subject={row['subject']} "
            f"value={row['value']}" in out
        )
        assert f"B: t={row['t']} kind={row['kind']} subject={row['subject']} " \
               f"value={edited['value']}" in out

    def test_identical_logs_add_nothing(self, tmp_path, capsys):
        a = telemetry_dir(tmp_path, "a")
        b = telemetry_dir(tmp_path, "b")
        assert main(["drift", str(a), str(b)]) == 0
        assert "diverging" not in capsys.readouterr().out

    def test_different_seeds_name_a_row_and_still_exit_one(self, tmp_path, capsys):
        a = telemetry_dir(tmp_path, "a")
        b = telemetry_dir(tmp_path, "b", seed=99)
        assert main(["drift", str(a), str(b)]) == 1
        assert "First diverging event: events.jsonl line" in capsys.readouterr().out

    def test_shorter_log_reports_its_end(self, tmp_path):
        for name, text in (("a", '{"x": 1}\n{"y": 2}\n'), ("b", '{"x": 1}\n')):
            (tmp_path / name).mkdir()
            (tmp_path / name / "events.jsonl").write_text(text)
        report = event_divergence(tmp_path / "a", tmp_path / "b")
        assert "line 2" in report and "the log ends here" in report
        assert event_divergence(tmp_path / "a", tmp_path / "missing") is None


class TestFirstDivergingDigestRow:
    """With the flight recorder armed, `repro drift` names the first
    digest row whose state differs, long before an event differs."""

    @staticmethod
    def armed_run(out, nudge_at=None, armed=True):
        """A 1-day ``small`` run whose digest rows share its log; with
        ``nudge_at``, sensor 0's battery gains one ulp at that time."""
        log = EventLog()
        world = World(
            SimulationConfig.small(seed=1, sim_time_s=DAY_S),
            log=log, blackbox=BlackBoxRecorder(log=log) if armed else None,
        )
        if nudge_at is not None:
            world.state.sim.run_until(nudge_at)
            levels = world.state.bank.levels_j
            levels[0] = np.nextafter(levels[0], np.inf)
        world.run()
        out.mkdir()
        log.write_jsonl(out / "events.jsonl")
        return log.digests

    def test_one_ulp_nudge_is_named_at_the_next_digest_row(self, tmp_path):
        rows = self.armed_run(tmp_path / "a")
        # The first full tick row after a quarter day, with no other row
        # at the time of the one before it: nudging at that time makes
        # it the next row.
        k = next(
            i for i, row in enumerate(rows)
            if row["t"] > 0.25 * DAY_S and row["kind"] == "tick"
            and "fields" in row and rows[i - 1]["t"] < row["t"]
        )
        self.armed_run(tmp_path / "b", nudge_at=rows[k - 1]["t"])
        report = event_divergence(tmp_path / "a", tmp_path / "b")
        assert report.startswith(f"First diverging digest row: seq {rows[k]['seq']}\n")
        assert "\n  fields: levels_j\n" in report
        # The first differing event comes 75 ticks (12.5 h) after the
        # nudge: a request released with a one-ulp different demand.
        event = report.split("First diverging event: ")[1]
        assert "kind=request_released subject=0" in event
        assert f"t={rows[k - 1]['t'] + 75 * 600.0}" in event

    def test_same_seed_runs_name_no_digest_row(self, tmp_path):
        self.armed_run(tmp_path / "a")
        self.armed_run(tmp_path / "b")
        assert event_divergence(tmp_path / "a", tmp_path / "b") is None
        # Against an unarmed run only the events are compared.
        self.armed_run(tmp_path / "c", armed=False)
        assert event_divergence(tmp_path / "a", tmp_path / "c") is None

    def test_a_plain_row_names_no_fields(self, tmp_path):
        for name, state in (("a", "0" * 64), ("b", "f" * 64)):
            (tmp_path / name).mkdir()
            row = {"type": "digest", "seq": 3, "t": 1.0, "kind": "tick",
                   "state": state, "rng": "r"}
            (tmp_path / name / "events.jsonl").write_text(json.dumps(row) + "\n")
        report = event_divergence(tmp_path / "a", tmp_path / "b")
        assert report.splitlines() == [
            "First diverging digest row: seq 3",
            f"  A: seq=3 t=1.0 kind=tick state={'0' * 16}",
            f"  B: seq=3 t=1.0 kind=tick state={'f' * 16}",
        ]
