"""Figure 4 — impact of sensor activity management on RV moving cost.

The paper compares four activity-management cases for each of the three
recharging schemes:

* **No ERC, Full time** — the prior-work baseline: every cluster member
  monitors continuously and requests recharge the moment it crosses the
  threshold (ERP = 0).
* **No ERC, With RR** — round-robin activation, immediate requests.
* **With ERC, Full time** — full-time activation, ERP = 0.6 (the
  paper's example value).
* **With ERC, With RR** — the proposed joint scheme.

The claim: "With ERC - with RR" consumes the least RV traveling energy;
"No ERC - Full time" the most; the management schemes save ~16%.

Unlike the ERP-sweep figures, Fig. 4 runs with Table II's own 3-hour
target period: the membership churn staggers threshold crossings, which
is precisely what makes the full-time baseline's request storm
expensive for the RVs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.config import HOUR_S
from ..sim.runner import average_summaries
from ..utils.tables import format_table
from .common import SCHEMES, ExperimentScale

__all__ = ["CASES", "run_fig4", "format_fig4", "activity_saving_percent"]

#: (label, erp, activation) — ERP 0.6 is the paper's example ERC value.
CASES: Tuple[Tuple[str, float, str], ...] = (
    ("No ERC - Full time", 0.0, "full_time"),
    ("No ERC - With RR", 0.0, "round_robin"),
    ("With ERC - Full time", 0.6, "full_time"),
    ("With ERC - With RR", 0.6, "round_robin"),
)


def run_fig4(
    scale: ExperimentScale, jobs: Optional[int] = None
) -> Dict[str, Dict[str, float]]:
    """Run all 12 cells; returns ``result[case_label][scheduler]`` =
    RV traveling energy in MJ.

    The whole ``case x scheduler x seed`` grid goes through the cell
    executor in one call, so ``jobs``/``REPRO_JOBS`` parallelism spans
    the entire figure, not just one cell's seeds.
    """
    from .executor import map_configs

    grid = [
        (label, erp, activation, sched)
        for label, erp, activation in CASES
        for sched in SCHEMES
    ]
    configs = [
        scale.base_config(
            scheduler=sched,
            erp=erp,
            activation=activation,
            target_period_s=3 * HOUR_S,
        ).with_overrides(seed=seed)
        for label, erp, activation, sched in grid
        for seed in scale.seeds
    ]
    summaries = map_configs(configs, jobs=jobs)
    n_seeds = len(scale.seeds)
    out: Dict[str, Dict[str, float]] = {}
    for i, (label, _erp, _activation, sched) in enumerate(grid):
        cell = average_summaries(summaries[i * n_seeds : (i + 1) * n_seeds])
        out.setdefault(label, {})[sched] = cell["traveling_energy_j"] / 1e6
    return out


def activity_saving_percent(result: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per scheduler: % traveling energy saved by the full joint scheme
    ("With ERC - With RR") relative to the baseline ("No ERC - Full
    time").  The paper reports ~16%."""
    savings = {}
    for sched in SCHEMES:
        base = result["No ERC - Full time"][sched]
        ours = result["With ERC - With RR"][sched]
        savings[sched] = 100.0 * (base - ours) / base if base > 0 else 0.0
    return savings


def format_fig4(result: Dict[str, Dict[str, float]]) -> str:
    """Render the Fig. 4 bars as a table (MJ)."""
    rows: List[list] = []
    for label, _, _ in CASES:
        rows.append([label] + [result[label][s] for s in SCHEMES])
    return format_table(
        ["case"] + list(SCHEMES),
        rows,
        title="Fig. 4 - Total traveling energy of RVs (MJ)",
    )
