"""Figure 5 — trade-off between energy efficiency and network
performance (greedy scheduler, ERP sweep).

Two series against the ERP value:

* RV traveling energy (MJ) — declines with ERP;
* target missing rate (%) — climbs once ERP passes the point where
  postponed requests start killing sensors (the paper finds the jump
  above ERP ~= 0.6).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..utils.tables import format_series
from .common import ERP_GRID, ExperimentScale, run_erp_sweep

__all__ = ["derive_fig5", "run_fig5", "format_fig5"]


def derive_fig5(
    sweep: Dict[str, Dict[str, List[float]]], erps: Sequence[float] = ERP_GRID
) -> Dict[str, List[float]]:
    """The two series from a sweep's greedy slice (the other schemes,
    if present, are ignored).

    Returns ``{"erp", "traveling_energy_mj", "missing_rate_pct"}``.
    """
    g = sweep["greedy"]
    return {
        "erp": list(erps),
        "traveling_energy_mj": [v / 1e6 for v in g["traveling_energy_j"]],
        "missing_rate_pct": [
            100.0 * (1.0 - v) for v in g["avg_coverage_ratio"]
        ],
    }


def run_fig5(
    scale: ExperimentScale, erps: Sequence[float] = ERP_GRID
) -> Dict[str, List[float]]:
    """Run the greedy-only ERP sweep and derive Fig. 5 from it."""
    return derive_fig5(run_erp_sweep(scale, schedulers=("greedy",), erps=erps), erps)


def format_fig5(result: Dict[str, List[float]]) -> str:
    return format_series(
        "ERP",
        result["erp"],
        {
            "traveling energy (MJ)": result["traveling_energy_mj"],
            "missing rate (%)": result["missing_rate_pct"],
        },
        title="Fig. 5 - Trade-off between energy efficiency and coverage (greedy)",
    )
