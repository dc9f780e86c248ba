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
from ..registry import SCHEDULERS
from .config import SimulationConfig
from .metrics import SimulationSummary
from .serialization import config_to_dict
from .world import World

if TYPE_CHECKING:
    from ..obs.manifest import RunManifest

__all__ = [
    "make_scheduler",
    "run_simulation",
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


def _flush_postmortem(
    world: World,
    directory: Union[str, Path],
    reason: str,
    error: Optional[BaseException] = None,
) -> None:
    """Write ``world``'s postmortem bundle, with its monitors'
    violations, after an ``abort`` digest row when the run died with
    ``error``; never raises (a failing flush must not mask the original
    failure)."""
    if error is not None:
        from .replay import abort_record

        try:
            abort_record(world, error)
        except Exception:  # state too broken to digest — flush without
            logger.exception("could not digest state for the abort row")
    try:
        world.blackbox.flush(
            directory,
            reason=reason,
            config=config_to_dict(world.cfg),
            monitors=world.state.monitors,
            error=f"{type(error).__name__}: {error}" if error is not None else None,
        )
        logger.warning("postmortem bundle written to %s (reason: %s)", directory, reason)
    except Exception:
        logger.exception("failed to flush the postmortem bundle to %s", directory)


def run_with_telemetry(
    config: SimulationConfig,
    out_dir: Optional[Union[str, Path]] = None,
    *,
    postmortem: Optional[Union[str, Path]] = None,
    strict: bool = False,
) -> Tuple[SimulationSummary, Optional[RunManifest]]:
    """Run one simulation armed: event log, invariant monitors and,
    with ``postmortem``, the flight recorder.

    This is the one way to arm a run.  The run is wired with an
    :class:`~repro.obs.EventLog` and a :class:`~repro.obs.MonitorSet`
    (runtime invariant monitors; ``strict`` makes a violation raise).

    With ``out_dir``, once the run ends the log writes
    ``events.jsonl`` and ``spans.jsonl`` into it
    (:meth:`~repro.obs.EventLog.write_files`), and a ``manifest.json``
    (:class:`~repro.obs.RunManifest`: config digest, seed, version, git
    revision, wall time, the log's instrument snapshot, file index) is
    written last so a complete directory always has one.

    With ``postmortem``, a :class:`~repro.obs.BlackBoxRecorder` rides
    along, writing its digest rows into the run's log (so they also
    land in ``events.jsonl``), and a bundle is always flushed to that
    directory: reason ``exception`` when the run died (with an
    ``abort`` row digesting the state at the failure point, before the
    exception propagates),
    ``violation`` when non-strict monitors recorded violations, and
    ``requested`` for a clean run.

    Arming never touches the trajectory: the summary returned here is
    bit-identical to ``run_simulation(config)``.

    Returns:
        ``(summary, manifest)``; the manifest is None without
        ``out_dir``.
    """
    from ..obs.monitors import MonitorSet

    log = EventLog()
    monitors = MonitorSet(log=log, strict=strict)
    recorder = None
    if postmortem is not None:
        from ..obs.blackbox import BlackBoxRecorder

        recorder = BlackBoxRecorder(log=log)
    wall0 = time.perf_counter()
    world = World(config, log=log, monitors=monitors, blackbox=recorder)
    try:
        summary = world.run()
    except BaseException as exc:
        if recorder is not None:
            _flush_postmortem(world, postmortem, "exception", exc)
        raise
    wall_time_s = time.perf_counter() - wall0
    if recorder is not None:
        _flush_postmortem(
            world, postmortem, "violation" if monitors.violations else "requested"
        )
    if monitors.violations:
        logger.warning(
            "run completed with %d invariant violation(s): %s",
            len(monitors.violations), monitors.summary()["by_invariant"],
        )
    if out_dir is None:
        return summary, None
    from ..obs.manifest import RunManifest

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.create(
        config=config_to_dict(config),
        seed=config.seed,
        wall_time_s=wall_time_s,
        summary=summary.as_dict(),
        instruments=log.snapshot(config.n_rvs),
        files=log.write_files(out),
    )
    manifest.write(out)
    logger.info(
        "telemetry archived to %s (%.3fs simulated wall time)", out, wall_time_s,
    )
    return summary, manifest


def average_summaries(summaries: Iterable[SimulationSummary]) -> Dict[str, float]:
    """Field-wise mean of several summaries (for seed averaging)."""
    dicts = [s.as_dict() for s in summaries]
    if not dicts:
        raise ValueError("no summaries to average")
    keys = dicts[0].keys()
    return {k: float(np.mean([d[k] for d in dicts])) for k in keys}
