"""Statistics helpers for seed-averaged experiments.

The paper reports single curves; a reproduction should also say how
stable they are across seeds.  These helpers compute per-metric means,
standard deviations and Student-t confidence intervals from a batch of
:class:`~repro.sim.metrics.SimulationSummary` objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

__all__ = ["mean_std", "t_confidence_interval", "summarize_runs"]


def mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and (ddof=1) standard deviation.

    A single observation has zero deviation by convention.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))


def t_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Two-sided Student-t confidence interval for the mean.

    Returns ``(low, high)``; degenerate (point) interval for a single
    observation.  :mod:`scipy.stats` is imported here, on first use, so
    importing this module (and everything that imports it) does not
    pay scipy's import cost.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values")
    m = float(arr.mean())
    if arr.size == 1:
        return m, m
    sem = float(arr.std(ddof=1)) / np.sqrt(arr.size)
    if sem == 0.0:
        return m, m
    from scipy import stats as sps

    half = float(sps.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1)) * sem
    return m - half, m + half


def summarize_runs(
    summaries: Iterable, confidence: float = 0.95
) -> Dict[str, Dict[str, float]]:
    """Per-metric statistics over several simulation summaries.

    Returns ``{metric: {mean, std, ci_low, ci_high, n}}``.
    """
    dicts = [s.as_dict() for s in summaries]
    if not dicts:
        raise ValueError("no summaries")
    out: Dict[str, Dict[str, float]] = {}
    for key in dicts[0]:
        values = [d[key] for d in dicts]
        m, s = mean_std(values)
        lo, hi = t_confidence_interval(values, confidence)
        out[key] = {"mean": m, "std": s, "ci_low": lo, "ci_high": hi, "n": float(len(values))}
    return out
