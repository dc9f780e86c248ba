"""Run helpers: scheduler factory, single runs, seed-averaged sweeps.

The experiment drivers (``repro.experiments``) and the benchmark suite
go through these functions so every figure is produced by the same code
path.  Seed fan-out (:func:`run_seeds`) goes through the experiment
executor, so it can run across processes (``jobs > 1``) —
configurations and summaries are plain frozen dataclasses, so they
cross process boundaries for free.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.scheduling import Scheduler
from ..obs.log import EventLog
from ..registry import EXPORTERS, SCHEDULERS
from .config import SimulationConfig
from .metrics import SimulationSummary
from .serialization import config_to_dict
from .world import World

if TYPE_CHECKING:
    from ..obs.blackbox import BlackBoxRecorder
    from ..obs.manifest import RunManifest

__all__ = [
    "make_scheduler",
    "run_simulation",
    "run_recorded",
    "run_seeds",
    "run_with_telemetry",
    "average_summaries",
]

logger = logging.getLogger(__name__)


def make_scheduler(name: str, fleet_size: int) -> Scheduler:
    """Instantiate the scheduler registered under ``name``.

    Thin wrapper over :data:`repro.registry.SCHEDULERS` — anything
    registered there (including third-party plugins) is constructible
    here, and an unknown name raises a ``ValueError`` listing the names
    currently registered.

    ``insertion`` is the single-RV Algorithm 3; with a fleet it behaves
    like the Combined-Scheme (see :mod:`repro.core.combined`).
    """
    return SCHEDULERS.build(name, fleet_size=fleet_size)


def run_simulation(config: SimulationConfig) -> SimulationSummary:
    """Build a world from ``config``, run it, return the summary."""
    return World(config).run()


def run_seeds(
    config: SimulationConfig,
    seeds: Sequence[int],
    jobs: Optional[int] = None,
) -> List[SimulationSummary]:
    """Run the same configuration under several seeds.

    A thin front of :func:`repro.experiments.executor.map_configs`: the
    seeds fan out (and hit the result store, when one is configured)
    exactly like a sweep's cells.

    Args:
        config: the base configuration (its ``seed`` is overridden).
        seeds: seeds to run; results come back in this order.
        jobs: worker processes.  ``None`` consults ``REPRO_JOBS``
            (default 1); ``1`` runs serially in-process.
    """
    from ..experiments.executor import map_configs

    return map_configs([config.with_overrides(seed=s) for s in seeds], jobs=jobs)


def _make_blackbox(blackbox) -> Optional[BlackBoxRecorder]:
    """Resolve the ``blackbox`` argument convention shared by the run
    helpers: ``None`` consults ``REPRO_BLACKBOX``, ``True``/``False``
    force it on/off, and a recorder instance is used as-is."""
    from ..obs.blackbox import BlackBoxRecorder, blackbox_enabled

    if blackbox is None:
        return BlackBoxRecorder() if blackbox_enabled() else None
    if blackbox is True:
        return BlackBoxRecorder()
    if blackbox is False:
        return None
    return blackbox


def _flush_postmortem(
    recorder: BlackBoxRecorder,
    directory: Union[str, Path],
    *,
    reason: str,
    config: SimulationConfig,
    monitors=None,
    log=None,
    world=None,
    error: Optional[BaseException] = None,
) -> Path:
    """Write a postmortem bundle, with ``log``'s spans and instrument
    snapshot when a log is given; never raises (a failing flush must
    not mask the original failure)."""
    final = None
    if error is not None and world is not None:
        from .replay import abort_record

        try:
            final = abort_record(world, error)
        except Exception:  # state too broken to digest — flush without
            logger.exception("could not digest state for the abort record")
    try:
        path = recorder.flush(
            directory,
            reason=reason,
            config=config_to_dict(config),
            monitors=monitors.describe() if monitors is not None else None,
            spans=log.span_lines() if log is not None else None,
            instruments=log.snapshot(config.n_rvs) if log is not None else None,
            error=f"{type(error).__name__}: {error}" if error is not None else None,
            final_record=final,
        )
        logger.warning("postmortem bundle written to %s (reason: %s)", path, reason)
        return Path(directory)
    except Exception:
        logger.exception("failed to flush the postmortem bundle to %s", directory)
        return Path(directory)


def run_recorded(
    config: SimulationConfig,
    bundle_dir: Union[str, Path],
    strict: Optional[bool] = None,
) -> SimulationSummary:
    """Run one simulation with the flight recorder armed and a
    postmortem bundle guaranteed at ``bundle_dir``.

    The bundle's reason reflects the outcome: ``exception`` when the
    run died (the exception is re-raised after the flush, with an
    ``abort`` record digesting the state at the failure point),
    ``violation`` when non-strict monitors recorded violations, and
    ``requested`` for a clean run.  ``strict`` arms strict monitors
    (``None`` consults ``REPRO_STRICT_MONITORS``).
    """
    from ..obs.blackbox import BlackBoxRecorder
    from ..obs.monitors import MonitorSet

    recorder = BlackBoxRecorder()
    monitors = MonitorSet(strict=strict, blackbox=recorder)
    world = World(config, monitors=monitors, blackbox=recorder)
    try:
        summary = world.run()
    except BaseException as exc:
        _flush_postmortem(
            recorder, bundle_dir, reason="exception", config=config,
            monitors=monitors, world=world, error=exc,
        )
        raise
    reason = "violation" if monitors.violations else "requested"
    _flush_postmortem(
        recorder, bundle_dir, reason=reason, config=config, monitors=monitors,
    )
    return summary


def run_with_telemetry(
    config: SimulationConfig,
    out_dir: Union[str, Path],
    exporters: Optional[Sequence[str]] = None,
    blackbox=None,
    postmortem: Optional[Union[str, Path]] = None,
) -> Tuple[SimulationSummary, RunManifest]:
    """Run one simulation with full telemetry archived to ``out_dir``.

    The run is wired with an :class:`~repro.obs.EventLog` and a
    :class:`~repro.obs.MonitorSet` (runtime invariant monitors;
    ``REPRO_STRICT_MONITORS=1`` makes violations raise).  The log's
    instrument snapshot is derived once the run ends, then every
    requested exporter (names from :data:`repro.registry.EXPORTERS`;
    the defaults otherwise) writes its files into ``out_dir``, and a
    ``manifest.json``
    (:class:`~repro.obs.RunManifest`: config digest, seed, version, git
    revision, wall time, instrument snapshot, file index) is written
    last so a complete directory always has one.

    Telemetry never touches the trajectory: the summary returned here
    is bit-identical to ``run_simulation(config)``.

    ``blackbox`` arms the flight recorder (``None`` consults
    ``REPRO_BLACKBOX``; ``True`` forces it; a
    :class:`~repro.obs.BlackBoxRecorder` instance is used as-is).  With
    a recorder armed, any exception or monitor violation flushes a
    postmortem bundle to ``postmortem`` (default:
    ``out_dir/postmortem``) before the exception propagates; passing
    ``postmortem`` explicitly also flushes a bundle for clean runs.

    Returns:
        ``(summary, manifest)``.
    """
    from ..obs.exporters import DEFAULT_EXPORTERS, TelemetryBundle
    from ..obs.manifest import RunManifest
    from ..obs.monitors import MonitorSet

    names = list(exporters) if exporters is not None else list(DEFAULT_EXPORTERS)
    for name in names:
        EXPORTERS.check(name)
    recorder = _make_blackbox(blackbox)
    log = EventLog()
    monitors = MonitorSet(log=log, blackbox=recorder)
    wall0 = time.perf_counter()
    world = World(config, log=log, monitors=monitors, blackbox=recorder)
    try:
        summary = world.run()
    except BaseException as exc:
        if recorder is not None:
            _flush_postmortem(
                recorder,
                Path(postmortem) if postmortem is not None
                else Path(out_dir) / "postmortem",
                reason="exception", config=config, monitors=monitors,
                log=log, world=world, error=exc,
            )
        raise
    wall_time_s = time.perf_counter() - wall0
    if recorder is not None and (postmortem is not None or monitors.violations):
        _flush_postmortem(
            recorder,
            Path(postmortem) if postmortem is not None
            else Path(out_dir) / "postmortem",
            reason="violation" if monitors.violations else "requested",
            config=config, monitors=monitors, log=log,
        )
    if monitors.violations:
        logger.warning(
            "run completed with %d invariant violation(s): %s",
            len(monitors.violations), monitors.summary()["by_invariant"],
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snapshot = log.snapshot(config.n_rvs)
    bundle = TelemetryBundle(
        instruments=snapshot,
        summary=summary.as_dict(),
        config=config_to_dict(config),
        log=log,
    )
    files: Dict[str, List[str]] = {}
    for name in names:
        written = EXPORTERS.build(name).export(out, bundle)
        files[name] = [p.name for p in written]
    manifest = RunManifest.create(
        config=bundle.config,
        seed=config.seed,
        wall_time_s=wall_time_s,
        summary=bundle.summary,
        instruments=snapshot,
        exporters=names,
        files=files,
    )
    manifest.write(out)
    logger.info(
        "telemetry archived to %s (%d exporter(s), %.3fs simulated wall time)",
        out, len(names), wall_time_s,
    )
    return summary, manifest


def average_summaries(summaries: Iterable[SimulationSummary]) -> Dict[str, float]:
    """Field-wise mean of several summaries (for seed averaging)."""
    dicts = [s.as_dict() for s in summaries]
    if not dicts:
        raise ValueError("no summaries to average")
    keys = dicts[0].keys()
    return {k: float(np.mean([d[k] for d in dicts])) for k in keys}
