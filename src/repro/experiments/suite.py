"""The paper's evaluation as one suite: every figure table derived once.

:func:`run_suite` runs the three simulations the evaluation needs —
Fig. 4's 12 cells, the 3-scheme ERP sweep behind Figs. 5-7 and the
clustering ablation — and derives, as pure functions of those runs,
the Fig. 4 savings, the Fig. 5 trade-off and the Section I headline
claims:

* sensor activity management saves RV traveling energy (paper: 16%);
* vs the greedy baseline, the Partition-Scheme saves traveling distance
  (paper: 41%) and the Combined-Scheme too (paper: 13%);
* nonfunctional nodes drop vs greedy (paper: 23% for Partition, 52%
  for Combined).

:data:`TABLES` turns a results map into each figure's ASCII table.
``scripts/run_experiments.py`` formats all of them; ``repro figure ID``
formats one from a results map that holds only what that figure needs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping

import numpy as np

from ..utils.tables import format_table
from .ablation_clustering import format_ablation, run_ablation, static_balance
from .common import ExperimentScale
from .fig4_activity import activity_saving_percent, format_fig4, run_fig4
from .fig5_tradeoff import derive_fig5, format_fig5
from .fig6_schemes import format_panel, panel_a, panel_b, panel_c, panel_d, run_fig6
from .fig7_profit import format_fig7_panel
from .fig7_profit import panel_a as fig7_panel_a
from .fig7_profit import panel_b as fig7_panel_b

__all__ = ["TABLES", "format_headline", "format_tables", "headline_claims", "run_suite"]

#: The paper's Section I numbers (%), in the order the table lists them.
PAPER_HEADLINE: Dict[str, float] = {
    "activity_mgmt_saving_pct": 16.0,
    "partition_distance_saving_pct": 41.0,
    "combined_distance_saving_pct": 13.0,
    "partition_nonfunctional_reduction_pct": 23.0,
    "combined_nonfunctional_reduction_pct": 52.0,
}


def run_suite(scale: ExperimentScale) -> Dict[str, Any]:
    """Run Fig. 4, the ERP sweep and the clustering ablation once.

    Returns the runs and what is derived from them, under the keys
    ``scripts/run_experiments.py`` writes to ``results.json``:
    ``fig4_mj``, ``fig4_savings_pct``, ``fig5``, ``sweep``,
    ``headline``, ``ablation_static_spread`` and ``ablation_dynamic``.
    """
    fig4 = run_fig4(scale)
    sweep = run_fig6(scale)
    return {
        "fig4_mj": fig4,
        "fig4_savings_pct": activity_saving_percent(fig4),
        "fig5": derive_fig5(sweep),
        "sweep": sweep,
        "headline": headline_claims(fig4, sweep),
        "ablation_static_spread": static_balance(seeds=10),
        "ablation_dynamic": run_ablation(scale),
    }


def headline_claims(
    fig4: Dict[str, Dict[str, float]], sweep: Dict[str, Dict[str, List[float]]]
) -> Dict[str, float]:
    """The headline numbers from the Fig. 4 cells and the ERP sweep.

    Savings are ERP-averaged, matching the paper's "on average" claims.
    """

    def mean(scheduler: str, metric: str) -> float:
        return float(np.mean(sweep[scheduler][metric]))

    def pct_saved(base: float, ours: float) -> float:
        return 100.0 * (base - ours) / base if base > 0 else 0.0

    dist_g = mean("greedy", "traveling_distance_m")
    nonf_g = mean("greedy", "avg_nonfunctional_fraction")
    return {
        "activity_mgmt_saving_pct": float(
            np.mean(list(activity_saving_percent(fig4).values()))
        ),
        "partition_distance_saving_pct": pct_saved(dist_g, mean("partition", "traveling_distance_m")),
        "combined_distance_saving_pct": pct_saved(dist_g, mean("combined", "traveling_distance_m")),
        "partition_nonfunctional_reduction_pct": pct_saved(
            nonf_g, mean("partition", "avg_nonfunctional_fraction")
        ),
        "combined_nonfunctional_reduction_pct": pct_saved(
            nonf_g, mean("combined", "avg_nonfunctional_fraction")
        ),
    }


def format_headline(result: Dict[str, float]) -> str:
    """Render the headline claims next to the paper's numbers."""
    rows: List[list] = [[name, paper, result[name]] for name, paper in PAPER_HEADLINE.items()]
    return format_table(
        ["claim", "paper (%)", "measured (%)"],
        rows,
        precision=1,
        title="Section I headline claims - paper vs measured",
    )


#: Each figure table: name -> formatter over a :func:`run_suite` map.
#: A formatter reads only its own keys, so a map holding just
#: ``fig4_mj``, ``fig5`` or ``sweep`` formats that figure alone.
TABLES: Dict[str, Callable[[Mapping[str, Any]], str]] = {
    "fig4": lambda r: format_fig4(r["fig4_mj"]),
    "fig5": lambda r: format_fig5(r["fig5"]),
    "fig6a": lambda r: format_panel("a", panel_a(r["sweep"])),
    "fig6b": lambda r: format_panel("b", panel_b(r["sweep"])),
    "fig6c": lambda r: format_panel("c", panel_c(r["sweep"])),
    "fig6d": lambda r: format_panel("d", panel_d(r["sweep"])),
    "fig7a": lambda r: format_fig7_panel("a", fig7_panel_a(r["sweep"])),
    "fig7b": lambda r: format_fig7_panel("b", fig7_panel_b(r["sweep"])),
    "headline": lambda r: format_headline(r["headline"]),
    "ablation_clustering": lambda r: format_ablation(
        r["ablation_static_spread"], r["ablation_dynamic"]
    ),
}


def format_tables(results: Mapping[str, Any]) -> Dict[str, str]:
    """Every figure table of a full :func:`run_suite` map."""
    return {name: fmt(results) for name, fmt in TABLES.items()}
