"""The paper's figure shapes, asserted on one smoke-scale suite run.

One module-scoped :func:`repro.experiments.run_suite` at the ``smoke``
scale (6 simulated days, seed 1) feeds every test: Fig. 4's 12 cells,
the 3-scheme ERP sweep behind Figs. 5-7 and the clustering ablation.
Each test checks the shape EXPERIMENTS.md reports for its figure; the
thresholds leave room for one seed's noise.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import (
    SCHEMES,
    current_scale,
    format_tables,
    panel_a,
    panel_b,
    panel_c,
    panel_d,
    run_suite,
)
from repro.experiments.fig7_profit import panel_a as fig7_panel_a
from repro.experiments.fig7_profit import panel_b as fig7_panel_b


@pytest.fixture(scope="module")
def suite():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_SCALE", "smoke")
        return run_suite(current_scale())


def means(series):
    return {s: float(np.mean(v)) for s, v in series.items()}


def test_fig4_joint_scheme_never_costs_more_than_baseline(suite):
    result = suite["fig4_mj"]
    for s in SCHEMES:
        assert result["With ERC - With RR"][s] <= result["No ERC - Full time"][s] * 1.05


def test_fig5_tradeoff(suite):
    result = suite["fig5"]
    # Traveling energy declines from ERP 0 to ERP 1.
    assert result["traveling_energy_mj"][-1] <= result["traveling_energy_mj"][0] * 1.02
    # The missing rate is (weakly) worse at full postponement.
    assert result["missing_rate_pct"][-1] >= result["missing_rate_pct"][0] - 0.5


def test_fig6a_partition_travels_least(suite):
    series = panel_a(suite["sweep"])
    m = means(series)
    assert m["partition"] <= m["greedy"]
    assert m["partition"] <= m["combined"]
    # ERC reduces travel for every scheme.
    for s, v in series.items():
        assert v[-1] <= v[0] * 1.05, s


def test_fig6b_coverage_stays_in_band(suite):
    for s, v in panel_b(suite["sweep"]).items():
        arr = np.asarray(v)
        assert np.all(arr >= 80.0), s
        assert np.all(arr <= 100.0 + 1e-9), s


def test_fig6c_nonfunctional_grows_with_erp(suite):
    series = panel_c(suite["sweep"])
    for s, v in series.items():
        assert v[-1] >= v[0] - 0.2, s
    m = means(series)
    # The combined scheme is not the worst performer.
    assert m["combined"] <= max(m.values())


def test_fig6d_partition_cheapest_recharging_cost(suite):
    series = panel_d(suite["sweep"])
    assert means(series)["partition"] <= means(series)["greedy"]
    for s, v in series.items():
        assert v[-1] <= v[0] * 1.05, s


def test_fig7a_energy_recharged_same_order(suite):
    m = means(fig7_panel_a(suite["sweep"]))
    # Combined is not the weakest deliverer.
    assert m["combined"] >= min(m.values())
    assert max(m.values()) <= 1.5 * min(m.values())


def test_fig7b_objective_positive(suite):
    series = fig7_panel_b(suite["sweep"])
    # Objective = delivered - travel: positive for a working system.
    for s, v in series.items():
        assert all(x > 0 for x in v), s
    # At high ERP, partition's low travel keeps it competitive with greedy.
    assert np.mean(series["partition"][-2:]) >= np.mean(series["greedy"][-2:]) * 0.95


def test_headline_directional_claims(suite):
    headline = suite["headline"]
    assert headline["activity_mgmt_saving_pct"] > 0
    assert headline["partition_distance_saving_pct"] > 0


def test_ablation_balanced_clustering_is_tighter(suite):
    static = suite["ablation_static_spread"]
    assert static["balanced"] <= static["nearest_target"]


def test_deviation_d1_missing_rate_stays_negligible(suite):
    """Deviation D1: targets are almost never missed, in every cell."""
    for s in SCHEMES:
        for cov in suite["sweep"][s]["avg_coverage_ratio"]:
            assert 100.0 * (1.0 - cov) <= 0.1, s


def test_cli_figure_5_matches_the_suite_table(suite, monkeypatch, capsys):
    """``repro figure 5`` runs the greedy sweep only; its table must be
    the bytes the suite derives from the full sweep's greedy slice."""
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    assert main(["figure", "5"]) == 0
    assert capsys.readouterr().out == format_tables(suite)["fig5"] + "\n"
