"""Tests for the experiment drivers (at a micro scale so they stay fast)."""

import numpy as np
import pytest

from repro.experiments.common import (
    ERP_GRID,
    SCHEMES,
    ExperimentScale,
    current_scale,
    run_cell,
    run_erp_sweep,
)
from repro.experiments.fig4_activity import (
    CASES,
    activity_saving_percent,
    format_fig4,
)
from repro.experiments.fig5_tradeoff import format_fig5, run_fig5
from repro.experiments.fig6_schemes import format_panel, panel_a, panel_b, panel_c, panel_d
from repro.experiments.fig7_profit import format_fig7_panel
from repro.experiments.fig7_profit import panel_a as fig7a
from repro.experiments.suite import format_headline

MICRO = ExperimentScale("micro", days=1.0, seeds=(1,))


def micro_cell(**overrides):
    defaults = dict(
        n_sensors=60,
        n_targets=3,
        side_length_m=80.0,
        battery_capacity_j=400.0,
        initial_charge_range=(0.5, 0.8),
        dispatch_period_s=1800.0,
    )
    defaults.update(overrides)
    return run_cell(MICRO, **defaults)


class TestCommon:
    def test_erp_grid_matches_paper_axis(self):
        assert ERP_GRID == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        assert SCHEMES == ("greedy", "partition", "combined")

    def test_current_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert current_scale().name == "paper"
        monkeypatch.setenv("REPRO_SCALE", "galaxy")
        with pytest.raises(ValueError):
            current_scale()

    def test_run_cell_returns_summary_dict(self):
        cell = micro_cell(scheduler="greedy")
        assert "traveling_energy_j" in cell
        assert cell["sim_time_s"] == pytest.approx(86400.0)

    def test_run_erp_sweep_shapes(self):
        sweep = run_erp_sweep(
            MICRO,
            schedulers=("greedy",),
            erps=(0.0, 1.0),
            n_sensors=60,
            n_targets=3,
            side_length_m=80.0,
            battery_capacity_j=400.0,
            initial_charge_range=(0.5, 0.8),
            dispatch_period_s=1800.0,
        )
        assert set(sweep) == {"greedy"}
        assert len(sweep["greedy"]["traveling_energy_j"]) == 2


class TestFigureFormatters:
    def _fake_sweep(self):
        metrics = [
            "traveling_energy_j",
            "avg_coverage_ratio",
            "avg_nonfunctional_fraction",
            "recharging_cost_m_per_sensor",
            "delivered_energy_j",
            "objective_j",
            "traveling_distance_m",
        ]
        rng = np.random.default_rng(0)
        return {
            s: {m: list(rng.uniform(0.1, 1.0, size=len(ERP_GRID))) for m in metrics}
            for s in SCHEMES
        }

    def test_fig6_panels_extract_all_schemes(self):
        sweep = self._fake_sweep()
        for panel in (panel_a, panel_b, panel_c, panel_d):
            series = panel(sweep)
            assert set(series) == set(SCHEMES)
            assert all(len(v) == len(ERP_GRID) for v in series.values())

    def test_fig6_format_contains_title(self):
        sweep = self._fake_sweep()
        out = format_panel("a", panel_a(sweep))
        assert "Fig. 6(a)" in out

    def test_fig7_panels(self):
        sweep = self._fake_sweep()
        series = fig7a(sweep)
        assert set(series) == set(SCHEMES)
        out = format_fig7_panel("a", series)
        assert "Fig. 7(a)" in out

    def test_fig5_format(self):
        result = {
            "erp": [0.0, 1.0],
            "traveling_energy_mj": [1.0, 0.8],
            "missing_rate_pct": [0.0, 2.0],
        }
        out = format_fig5(result)
        assert "Fig. 5" in out

    def test_fig4_cases_cover_grid(self):
        labels = [c[0] for c in CASES]
        assert len(CASES) == 4
        assert "No ERC - Full time" in labels
        assert "With ERC - With RR" in labels

    def test_fig4_savings_and_format(self):
        fake = {
            "No ERC - Full time": {s: 1.0 for s in SCHEMES},
            "No ERC - With RR": {s: 0.9 for s in SCHEMES},
            "With ERC - Full time": {s: 0.95 for s in SCHEMES},
            "With ERC - With RR": {s: 0.8 for s in SCHEMES},
        }
        savings = activity_saving_percent(fake)
        assert all(v == pytest.approx(20.0) for v in savings.values())
        assert "Fig. 4" in format_fig4(fake)

    def test_headline_format(self):
        result = {
            "activity_mgmt_saving_pct": 10.0,
            "partition_distance_saving_pct": 20.0,
            "combined_distance_saving_pct": 5.0,
            "partition_nonfunctional_reduction_pct": 15.0,
            "combined_nonfunctional_reduction_pct": 40.0,
        }
        out = format_headline(result)
        assert "paper (%)" in out and "41.0" in out


class TestMicroEndToEnd:
    """One tiny but real end-to-end figure run (keeps the drivers honest)."""

    def test_fig5_micro(self):
        result = run_fig5(
            ExperimentScale("micro", days=0.5, seeds=(1,)),
            erps=(0.0, 1.0),
        )
        assert len(result["traveling_energy_mj"]) == 2
        assert all(v >= 0 for v in result["traveling_energy_mj"])
