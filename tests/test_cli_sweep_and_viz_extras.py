"""Tests for the CLI sweep command and run_cell_stats."""

from repro.cli import main
from repro.experiments.common import ExperimentScale, run_cell_stats


class TestCliSweep:
    def test_sweep_table(self, capsys):
        rc = main(
            [
                "sweep",
                "--preset",
                "small",
                "--days",
                "0.3",
                "--erps",
                "0,1",
                "--schedulers",
                "greedy",
                "--seeds",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "traveling_energy_j" in out
        assert "greedy" in out
        assert "+/-" in out

    def test_sweep_custom_metric(self, capsys):
        rc = main(
            [
                "sweep",
                "--preset",
                "small",
                "--days",
                "0.3",
                "--erps",
                "0",
                "--schedulers",
                "combined",
                "--seeds",
                "1,2",
                "--metric",
                "n_recharges",
            ]
        )
        assert rc == 0
        assert "n_recharges" in capsys.readouterr().out


class TestRunCellStats:
    def test_stats_shape(self):
        scale = ExperimentScale("micro", days=0.3, seeds=(1, 2))
        stats = run_cell_stats(
            scale,
            n_sensors=40,
            n_targets=2,
            side_length_m=60.0,
            battery_capacity_j=400.0,
            initial_charge_range=(0.5, 0.8),
            dispatch_period_s=1800.0,
        )
        entry = stats["traveling_energy_j"]
        assert entry["n"] == 2
        assert entry["ci_low"] <= entry["mean"] <= entry["ci_high"]
