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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.scheduling import Scheduler
from ..obs import (
    DEFAULT_EXPORTERS,
    BlackBoxRecorder,
    Instruments,
    MonitorSet,
    RunManifest,
    SpanTracer,
    TelemetryBundle,
    blackbox_enabled,
)
from ..registry import EXPORTERS, SCHEDULERS
from .config import SimulationConfig
from .metrics import SimulationSummary
from .serialization import config_to_dict
from .soa import engine_provenance
from .trace import TraceRecorder
from .world import World

__all__ = [
    "make_scheduler",
    "run_simulation",
    "run_batch",
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


def run_batch(
    configs: Sequence[SimulationConfig],
    debug: Optional[bool] = None,
    instruments=None,
) -> List[SimulationSummary]:
    """Run several configurations, batching compatible ones.

    Configurations are grouped by :func:`~repro.sim.batch.shape_signature`
    (identical up to seed / scheduler / erp / horizon) and each group
    advances in lockstep through one
    :class:`~repro.sim.batch.BatchedEngine`; anything the batched
    kernels cannot represent — a plugin activator, a custom ERC release
    policy, an attached trace recorder, battery leakage — falls back to
    :func:`run_simulation` per cell.  Either way every summary is
    bit-identical to its serial ``run_simulation`` counterpart, and
    results come back in input order.

    ``debug`` arms the per-world serial shadow twin (``None`` consults
    ``REPRO_DEBUG_BATCH``).  ``REPRO_STRICT_MONITORS=1`` wires every
    batched world with a strict :class:`~repro.obs.MonitorSet`, so the
    invariant monitors validate the batched kernels tick by tick and
    any violation raises — monitors observe the trajectory, never
    perturb it.

    ``instruments`` (optional) counts cells batched vs serial-fallback
    (``batch.cells_batched`` / ``batch.cells_serial``); instruments
    never touch the trajectory, so summaries stay byte-identical with
    or without them.
    """
    from ..obs.instruments import NULL_INSTRUMENTS
    from ..obs.monitors import MonitorSet, strict_monitors_default
    from .batch import BatchedEngine, _batchable_world, batchable_config, shape_signature

    obs = NULL_INSTRUMENTS if instruments is None else instruments
    strict = strict_monitors_default()
    configs = list(configs)
    out: List[Optional[SimulationSummary]] = [None] * len(configs)
    groups: Dict[str, List[Tuple[int, World]]] = {}
    for i, cfg in enumerate(configs):
        if not batchable_config(cfg):
            logger.debug("cell %d not batchable by config; running serially", i)
            obs.counter("batch.cells_serial").inc()
            out[i] = run_simulation(cfg)
            continue
        world = World(
            cfg,
            external_tick=True,
            monitors=MonitorSet(strict=True) if strict else None,
        )
        reason = _batchable_world(world)
        if reason is not None:
            # The screening world has no tick event scheduled; rebuild.
            logger.debug("cell %d not batchable (%s); running serially", i, reason)
            obs.counter("batch.cells_serial").inc()
            out[i] = run_simulation(cfg)
            continue
        groups.setdefault(shape_signature(cfg), []).append((i, world))
    for pairs in groups.values():
        obs.counter("batch.cells_batched").inc(len(pairs))
        engine = BatchedEngine(worlds=[w for _, w in pairs], debug=debug)
        for (i, _), summary in zip(pairs, engine.run()):
            out[i] = summary
    return out  # type: ignore[return-value]


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
    spans=None,
    instruments=None,
    world=None,
    error: Optional[BaseException] = None,
) -> Path:
    """Write a postmortem bundle; never raises (a failing flush must
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
            engine=engine_provenance(),
            monitors=monitors.describe() if monitors is not None else None,
            spans=spans,
            instruments=instruments.snapshot() if instruments is not None else None,
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

    The run is wired with a :class:`~repro.sim.trace.TraceRecorder`, an
    :class:`~repro.obs.Instruments` registry, a
    :class:`~repro.obs.SpanTracer` (the hierarchical flight-recorder
    trace) and a :class:`~repro.obs.MonitorSet` (runtime invariant
    monitors; ``REPRO_STRICT_MONITORS=1`` makes violations raise), then
    every requested exporter (names from
    :data:`repro.registry.EXPORTERS`; the defaults otherwise) writes
    its files into ``out_dir``, and a ``manifest.json``
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
    names = list(exporters) if exporters is not None else list(DEFAULT_EXPORTERS)
    for name in names:
        EXPORTERS.check(name)
    recorder = _make_blackbox(blackbox)
    instruments = Instruments()
    trace = TraceRecorder()
    spans = SpanTracer()
    monitors = MonitorSet(instruments=instruments, spans=spans, blackbox=recorder)
    wall0 = time.perf_counter()
    world = World(
        config, trace=trace, instruments=instruments, spans=spans, monitors=monitors,
        blackbox=recorder,
    )
    try:
        summary = world.run()
    except BaseException as exc:
        if recorder is not None:
            _flush_postmortem(
                recorder,
                Path(postmortem) if postmortem is not None
                else Path(out_dir) / "postmortem",
                reason="exception", config=config, monitors=monitors,
                spans=spans, instruments=instruments, world=world, error=exc,
            )
        raise
    wall_time_s = time.perf_counter() - wall0
    if recorder is not None and (postmortem is not None or monitors.violations):
        _flush_postmortem(
            recorder,
            Path(postmortem) if postmortem is not None
            else Path(out_dir) / "postmortem",
            reason="violation" if monitors.violations else "requested",
            config=config, monitors=monitors, spans=spans, instruments=instruments,
        )
    if monitors.violations:
        logger.warning(
            "run completed with %d invariant violation(s): %s",
            len(monitors.violations), monitors.summary()["by_invariant"],
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = TelemetryBundle(
        instruments=instruments.snapshot(),
        summary=summary.as_dict(),
        config=config_to_dict(config),
        trace=trace,
        spans=spans,
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
        instruments=bundle.instruments,
        exporters=names,
        files=files,
        engine=engine_provenance(),
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
