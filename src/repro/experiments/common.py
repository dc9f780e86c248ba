"""Shared machinery for the figure-reproduction experiments.

Every experiment runs the calibrated configuration
(:meth:`repro.sim.SimulationConfig.experiment`) at one of three scales:

* ``smoke`` — 6 simulated days, 1 seed: CI-fast, shows the mechanisms.
* ``bench`` — 15 days, 2 seeds: the default for ``pytest benchmarks/``.
* ``paper`` — 40 days, 3 seeds: the scale used for the numbers recorded
  in EXPERIMENTS.md.

Select with the ``REPRO_SCALE`` environment variable (default
``bench``).  The ERP grid matches the paper's x-axis (0 to 1 in steps
of 0.2).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..registry import SCHEDULERS as SCHEDULER_REGISTRY
from ..sim.config import DAY_S, SimulationConfig
from ..sim.runner import average_summaries

__all__ = [
    "ERP_GRID",
    "SCHEMES",
    "ExperimentScale",
    "current_scale",
    "run_cell",
    "run_cell_stats",
    "run_erp_sweep",
]

#: The paper's ERP x-axis.
ERP_GRID: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

#: The three recharging schemes every figure compares.
SCHEMES: Tuple[str, ...] = ("greedy", "partition", "combined")


@dataclass(frozen=True)
class ExperimentScale:
    """How long and how many seeds an experiment runs."""

    name: str
    days: float
    seeds: Tuple[int, ...]

    def base_config(self, **overrides) -> SimulationConfig:
        """The calibrated experiment config at this scale."""
        return SimulationConfig.experiment(
            sim_time_s=self.days * DAY_S, **overrides
        )


_SCALES = {
    "smoke": ExperimentScale("smoke", days=6.0, seeds=(1,)),
    "bench": ExperimentScale("bench", days=15.0, seeds=(1, 2)),
    "paper": ExperimentScale("paper", days=40.0, seeds=(1, 2, 3)),
}


def current_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_SCALE`` (default ``bench``)."""
    name = os.environ.get("REPRO_SCALE", "bench").lower()
    if name not in _SCALES:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(_SCALES)}, got {name!r}")
    return _SCALES[name]


def run_cell(
    scale: ExperimentScale, jobs: Optional[int] = None, **overrides
) -> Dict[str, float]:
    """Run one experiment cell (seed-averaged) and return the flat
    summary dict of :meth:`SimulationSummary.as_dict`.

    Cells go through the opt-in result store (``REPRO_STORE``); with
    it unset they always run fresh.  Seeds fan out across the executor
    pool (``jobs``, else ``REPRO_JOBS``; store lookups stay in the
    parent process).
    """
    from .executor import map_configs

    cfg = scale.base_config(**overrides)
    configs = [cfg.with_overrides(seed=s) for s in scale.seeds]
    return average_summaries(map_configs(configs, jobs=jobs))


def run_cell_stats(
    scale: ExperimentScale,
    confidence: float = 0.95,
    jobs: Optional[int] = None,
    **overrides,
) -> Dict[str, Dict[str, float]]:
    """Like :func:`run_cell` but with per-metric seed statistics.

    Returns ``{metric: {mean, std, ci_low, ci_high, n}}`` so figure
    tables can report uncertainty alongside the mean.
    """
    from ..utils.stats import summarize_runs
    from .executor import map_configs

    cfg = scale.base_config(**overrides)
    configs = [cfg.with_overrides(seed=s) for s in scale.seeds]
    return summarize_runs(map_configs(configs, jobs=jobs), confidence=confidence)


def run_erp_sweep(
    scale: ExperimentScale,
    schedulers: Sequence[str] = SCHEMES,
    erps: Sequence[float] = ERP_GRID,
    jobs: Optional[int] = None,
    **overrides,
) -> Dict[str, Dict[str, List[float]]]:
    """The ERP sweep behind Figs. 5, 6(a-d) and 7(a-b).

    Returns ``result[scheduler][metric]`` as a list aligned with
    ``erps``; metrics are the flat summary keys.

    The whole ``scheduler x erp x seed`` grid is executed by the cell
    executor (:mod:`repro.experiments.executor`): every cell is keyed
    by ``(scheduler, erp, seed)`` and reassembled here in grid order,
    so the result is bit-identical to the serial loop whatever ``jobs``
    is.
    """
    from .executor import map_cells

    for sched in schedulers:
        # Fail fast (and with the registered names) before burning a
        # whole sweep grid on a typo.
        SCHEDULER_REGISTRY.check(sched)
    cells = map_cells(scale, schedulers, erps, jobs=jobs, **overrides)
    out: Dict[str, Dict[str, List[float]]] = {}
    for sched in schedulers:
        per_metric: Dict[str, List[float]] = {}
        for erp in erps:
            cell = average_summaries(
                [cells[(sched, float(erp), int(seed))] for seed in scale.seeds]
            )
            for k, v in cell.items():
                per_metric.setdefault(k, []).append(v)
        out[sched] = per_metric
    return out
