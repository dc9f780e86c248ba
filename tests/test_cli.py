"""Tests for the command-line interface and serialization."""

import json
import logging

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

        rc = main(["report", str(out)])
        assert rc == 0
        report = capsys.readouterr().out
        assert "Telemetry report" in report
        assert "Phase timings" in report

    def test_run_telemetry_exporter_subset(self, tmp_path, capsys):
        out = tmp_path / "tele"
        rc = main(["run", "--preset", "small", "--days", "0.2", "--json",
                   "--telemetry", str(out), "--exporters", "prometheus"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry_dir"] == str(out)
        assert (out / "metrics.prom").is_file()
        assert not (out / "events.jsonl").exists()

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
