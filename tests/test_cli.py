"""Tests for the command-line interface and serialization."""

import json
import logging
import os
import subprocess
import sys

import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.sim.config import SimulationConfig
from repro.sim.serialization import config_from_dict, config_to_dict


class TestSerialization:
    def test_roundtrip_default(self):
        cfg = SimulationConfig.small(scheduler="partition", erp=0.7, seed=3)
        rebuilt = config_from_dict(config_to_dict(cfg))
        assert rebuilt == cfg

    def test_roundtrip_experiment(self):
        cfg = SimulationConfig.experiment(erp=0.4)
        rebuilt = config_from_dict(config_to_dict(cfg))
        assert rebuilt == cfg

    def test_json_compatible(self):
        cfg = SimulationConfig.paper()
        payload = json.dumps(config_to_dict(cfg))
        assert config_from_dict(json.loads(payload)) == cfg

    @pytest.mark.parametrize("block", [
        None, "charge_model", "power_model", "power_model.radio", "power_model.sensing",
    ])
    def test_unknown_key_is_named(self, block):
        data = config_to_dict(SimulationConfig.small())
        target = data
        for key in block.split(".") if block else ():
            target = target[key]
        target["bogus"] = 1
        with pytest.raises(ValueError, match=rf"unknown {block or 'config'} key\(s\): bogus"):
            config_from_dict(data)

    def test_partial_dict_uses_defaults(self):
        cfg = config_from_dict({"n_sensors": 10, "scheduler": "greedy"})
        assert cfg.n_sensors == 10
        assert cfg.scheduler == "greedy"
        assert cfg.n_targets == 15  # default


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "--preset", "small", "--scheduler", "greedy", "--erp", "0.5", "--days", "2"]
        )
        assert args.preset == "small"
        assert args.erp == 0.5

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_log_level_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "LOUD", "run"])

    def test_jobs_auto_parses(self):
        import argparse

        from repro.cli import _jobs_type

        assert _jobs_type("auto") >= 1
        assert _jobs_type("3") == 3
        with pytest.raises(argparse.ArgumentTypeError):
            _jobs_type("0")
        with pytest.raises(argparse.ArgumentTypeError):
            _jobs_type("many")


class TestCommands:
    def test_run_json(self, capsys):
        rc = main(["run", "--preset", "small", "--days", "0.2", "--json", "--seed", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["sim_time_s"] == pytest.approx(0.2 * 86400)
        assert payload["config"]["scheduler"]

    def test_run_table(self, capsys):
        rc = main(["run", "--preset", "small", "--days", "0.2", "--scheduler", "greedy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traveling_energy_j" in out
        assert "greedy" in out

    def test_run_with_config_file(self, tmp_path, capsys):
        cfg = SimulationConfig.small(sim_time_s=0.2 * 86400, seed=5)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        rc = main(["run", "--config", str(path)])
        assert rc == 0

    def test_estimate(self, capsys):
        rc = main(["estimate", "--preset", "experiment"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cluster size" in out
        assert "fleet lower bound" in out

    def test_map_ascii(self, capsys):
        rc = main(["map", "--preset", "small", "--at-hours", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "B" in out and "+" in out

    def test_map_svg(self, tmp_path, capsys):
        target = tmp_path / "field.svg"
        rc = main(["map", "--preset", "small", "--at-hours", "1", "--svg", str(target)])
        assert rc == 0
        assert target.read_text().startswith("<svg")

    def test_figure_unknown_id(self, capsys):
        rc = main(["figure", "9z"])
        assert rc == 2

    def test_log_level_configures_logging(self, capsys):
        root = logging.getLogger()
        before_level, before_handlers = root.level, list(root.handlers)
        try:
            rc = main(["--log-level", "DEBUG", "estimate", "--preset", "small"])
            assert rc == 0
            assert root.level == logging.DEBUG
        finally:
            root.level = before_level
            for h in list(root.handlers):
                if h not in before_handlers:
                    root.removeHandler(h)


class TestTelemetryCommands:
    def test_run_telemetry_and_report(self, tmp_path, capsys):
        out = tmp_path / "tele"
        rc = main(["run", "--preset", "small", "--days", "0.2", "--seed", "1",
                   "--telemetry", str(out)])
        assert rc == 0
        assert "telemetry written to" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        for line in (out / "events.jsonl").read_text().splitlines():
            assert json.loads(line)["type"] in ("event", "sample")

        assert sorted(p.name for p in out.iterdir()) == [
            "events.jsonl", "manifest.json", "spans.jsonl"]

        rc = main(["report", str(out)])
        assert rc == 0
        report = capsys.readouterr().out
        assert "Telemetry report" in report
        assert "Phase timings" in report
        assert "Span tree" in report

    def test_report_counts_digest_rows(self, tmp_path, capsys):
        """A run armed with a recorder reports its digest rows: their
        count, seq range and time range, read from events.jsonl."""
        out = tmp_path / "tele"
        assert main(["run", "--preset", "small", "--days", "0.2", "--seed", "1",
                     "--telemetry", str(out), "--postmortem", str(tmp_path / "pm")]) == 0
        rows = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        digests = [r for r in rows if r["type"] == "digest"]
        assert len(digests) > 1
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "Flight-recorder digests" in report
        lines = {line.split()[0]: line for line in report.splitlines() if line.strip()}
        assert lines["rows"].split()[-1] == str(len(digests))
        assert lines["seq"].split()[-3:] == [str(digests[0]["seq"]), "..",
                                             str(digests[-1]["seq"])]
        assert lines["t"].split()[-3:] == [str(digests[0]["t"]), "..",
                                           str(digests[-1]["t"])]

        from repro.obs.report import load_report

        assert load_report(out)["digests"] == {
            "count": len(digests),
            "seq": (digests[0]["seq"], digests[-1]["seq"]),
            "t": (digests[0]["t"], digests[-1]["t"]),
        }
        # An unarmed run's report has no digest block.
        plain = tmp_path / "plain"
        assert main(["run", "--preset", "small", "--days", "0.2", "--seed", "1",
                     "--telemetry", str(plain)]) == 0
        assert "digests" not in load_report(plain)

    @pytest.mark.parametrize("armed", [["--telemetry", "{tmp}/tele"], []],
                             ids=["telemetry", "flag-alone"])
    def test_strict_monitors_flag_fails_the_run(self, tmp_path, capsys, monkeypatch, armed):
        """``--strict-monitors`` arms strict monitors with or without
        ``--telemetry``: a forced violation exits 1 in one line."""
        monkeypatch.setenv("REPRO_MONITOR_ATOL_J", "-1")
        flags = [f.format(tmp=tmp_path) for f in armed]
        rc = main(["run", "--preset", "small", "--days", "0.05", "--seed", "1",
                   *flags, "--strict-monitors"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("invariant violation:")

    @pytest.mark.parametrize("breakage", ["truncated", "not-an-object", "unreadable"])
    def test_report_broken_manifest_is_one_line(self, tmp_path, capsys, breakage):
        path = tmp_path / "manifest.json"
        if breakage == "truncated":
            path.write_text('{"created_utc": "2024-')
        elif breakage == "not-an-object":
            path.write_text("[1, 2]")
        else:
            path.mkdir()
        assert main(["report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("report: ") and "manifest.json" in lines[0]

    def test_archive_in_the_per_exporter_format_still_reads(self, tmp_path, capsys):
        """A directory written when each exporter had its own entry in
        the manifest (and its own files) reports and drifts as before."""
        argv = ["run", "--preset", "small", "--days", "0.1", "--seed", "4"]
        old, new = tmp_path / "old", tmp_path / "new"
        assert main([*argv, "--telemetry", str(old)]) == 0
        assert main([*argv, "--telemetry", str(new)]) == 0
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["exporters"] = ["jsonl", "prometheus", "csv", "spans"]
        manifest["files"] = {
            "jsonl": ["events.jsonl", "metrics.jsonl"],
            "prometheus": ["metrics.prom"],
            "csv": ["series.csv", "instruments.csv"],
            "spans": ["spans.jsonl"],
        }
        (old / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        (old / "metrics.jsonl").write_text('{"instrument": "counter"}\n')
        (old / "metrics.prom").write_text("repro_fleet_sorties_total 1\n")
        (old / "instruments.csv").write_text("kind,name,field,value\n")
        (old / "series.csv").write_text("series,time_s,value\n")
        capsys.readouterr()

        assert main(["report", str(old)]) == 0
        report = capsys.readouterr().out
        assert "metrics.prom" in report and "Span tree" in report
        assert "WARNING" not in report
        assert main(["drift", str(old), str(new)]) == 0

    def test_report_missing_dir_is_error(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nothing")])
        assert rc == 2
        assert "manifest" in capsys.readouterr().err

    def test_run_profile_prints_hotspots(self, capsys):
        rc = main(["run", "--preset", "small", "--days", "0.1", "--seed", "2",
                   "--profile", "--profile-top", "5"])
        assert rc == 0
        assert "cProfile" in capsys.readouterr().out

    def test_run_json_profile_is_one_json_document(self, capsys):
        rc = main(["run", "--preset", "small", "--days", "0.1", "--seed", "2",
                   "--json", "--profile", "--profile-top", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"config", "summary", "profile"}
        rows = payload["profile"]
        assert len(rows) == 5
        assert set(rows[0]) == {"function", "ncalls", "tottime_s", "cumtime_s"}
        cum = [row["cumtime_s"] for row in rows]
        assert cum == sorted(cum, reverse=True)


class TestBadInput:
    """A configuration the CLI cannot build ends in one ``repro: error:``
    line on stderr and exit code 2 (argparse's), not a traceback."""

    @pytest.mark.parametrize(
        "flags, config_text",
        [
            (["--erp", "2"], None),
            (["--days", "-1"], None),
            (["--config", "{missing}"], None),
            (["--config", os.devnull], None),
            (["--config", "{file}"], '{"bogus": 1}'),
            (["--config", "{file}"], "[1]"),
        ],
        ids=[
            "erp-2", "negative-days", "missing-file", "empty-file", "unknown-key",
            "not-an-object",
        ],
    )
    def test_one_line_error_and_exit_2(self, tmp_path, capsys, flags, config_text):
        path = tmp_path / "cfg.json"
        if config_text is not None:
            path.write_text(config_text)
        flags = [
            f.format(missing=tmp_path / "nonexistent.json", file=path) for f in flags
        ]
        rc = main(["run", "--preset", "small", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("repro: error: ")

    def test_run_config_names_the_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(config_to_dict(SimulationConfig.small()), bogus=1)))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "unknown config key(s): bogus" in err

    def test_replay_bundle_with_an_unknown_config_key(self, tmp_path, capsys):
        bundle = tmp_path / "pm"
        assert main(["run", "--preset", "small", "--days", "0.05", "--seed", "3",
                     "--postmortem", str(bundle)]) == 0
        config_path = bundle / "config.json"
        config = json.loads(config_path.read_text())
        config_path.write_text(json.dumps(dict(config, bogus=1)))
        capsys.readouterr()
        assert main(["replay", str(bundle)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("replay: ") and "bogus" in lines[0]


def test_closed_stdout_ends_quietly():
    """A reader that closes the pipe early (``repro estimate | true``)
    gets exit code 141 and no traceback on stderr."""
    from repro.cli import EXIT_BROKEN_PIPE

    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "estimate"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert b"Traceback" not in proc.stderr
    assert b"BrokenPipeError" not in proc.stderr
