"""Process-pool executor for experiment cells.

The paper's figures are ERP-grid sweeps: a grid of
``(scheduler, erp, seed)`` cells that are embarrassingly parallel.
:func:`map_cells` fans a whole grid out across worker processes while
keeping the output *bit-identical* to the serial path:

* every cell is keyed by ``(scheduler, erp, seed)`` and the results are
  reassembled in grid order in the parent, so averaging and JSON
  serialization see exactly the sequence the serial loop would produce;
* result-store lookups (``REPRO_STORE`` or a ``store`` argument,
  :mod:`repro.experiments.store`, through
  :func:`repro.experiments.cache.cache_lookup`) happen in the parent —
  only misses are shipped to the pool — and completed cells are stored
  by the parent, so workers stay pure functions of their configuration;
* the worker entry point is the module-level
  :func:`repro.sim.runner.run_simulation` over a picklable frozen
  ``SimulationConfig``, which makes the pool safe under both ``fork``
  and ``spawn`` start methods (``REPRO_START_METHOD`` forces one).

Worker count comes from the ``jobs`` argument, else ``REPRO_JOBS``,
else 1 (serial, in-process).  ``auto`` (either the argument via the CLI
or the environment variable) resolves to ``os.cpu_count()``.  The CLI
exposes the same control as ``--jobs``.

Misses run on a :class:`repro.experiments.pool.WarmPool` — the only
pool — opened for the call and closed, workers joined, before the call
returns; results come back pickled over each worker's pipe.  The pool
runs the same worker functions over the same payloads as the serial
path and the parent reassembles by index, so summaries are
byte-identical for any ``jobs``.  Nothing pool-related is imported —
let alone spawned — before the first multi-worker fan-out.

One miss loop: :func:`iter_configs` yields ``(index, summary, source)``
per cell *as cells finish*; :func:`map_configs` is the grid-order
reassembly of the same stream.  Every miss is one serial
:class:`~repro.sim.world.World` run, in one of three task kinds: plain
(``run``), under an event log (``traced``) or with the flight recorder
armed (``recorded``).

Observability: pass an :class:`repro.obs.EventLog` as ``log`` to
:func:`map_configs` and the fan-out becomes part of its span tree.
The call's ``executor.map`` phase carries the executor's counts as
attributes (``cells``, ``jobs``, ``cache_hits``), each store hit is an
``executor.store_hit`` mark on it, and every miss runs under its own
log through :func:`_run_cell_traced` (in the pool when ``jobs > 1``)
whose serialized spans are merged under ``executor.map`` in miss
order with deterministically renumbered ids — so a ``--jobs 4`` trace
reads exactly like the serial one.  The store and the pool keep their
own totals in their ``stats`` dicts.
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs.log import NULL_LOG, EventLog
from ..sim.config import SimulationConfig
from ..sim.metrics import SimulationSummary
from ..sim.runner import run_simulation
from ..sim.world import World

__all__ = [
    "CellKey",
    "default_jobs",
    "iter_configs",
    "map_cells",
    "map_configs",
    "sweep_grid",
]

#: A sweep-cell coordinate: ``(scheduler, erp, seed)``.
CellKey = Tuple[str, float, int]


def default_jobs() -> int:
    """Worker count for cell fan-out when ``jobs`` is not given.

    ``REPRO_JOBS`` (an integer, or ``auto`` for ``os.cpu_count()``);
    the default is 1 (serial) so library users opt in explicitly.
    """
    value = os.environ.get("REPRO_JOBS", "").strip()
    if not value:
        return 1
    if value.lower() == "auto":
        return max(1, os.cpu_count() or 1)
    try:
        n = int(value)
    except ValueError as exc:
        raise ValueError(
            f"REPRO_JOBS must be an integer or 'auto', got {value!r}"
        ) from exc
    if n < 1:
        raise ValueError("REPRO_JOBS must be >= 1")
    return n


def _pool_start_method() -> str:
    """The multiprocessing start method for pool workers.

    ``REPRO_START_METHOD`` (``fork`` / ``spawn`` / ``forkserver``)
    forces one — the spawn path is exercised in CI this way — else
    prefer fork (cheap and REPL-friendly) and fall back to spawn.
    """
    available = multiprocessing.get_all_start_methods()
    value = os.environ.get("REPRO_START_METHOD", "").strip().lower()
    if value:
        if value not in available:
            raise ValueError(
                f"REPRO_START_METHOD must be one of {sorted(available)}, got {value!r}"
            )
        return value
    return "fork" if "fork" in available else "spawn"


def _run_cell_traced(
    config: SimulationConfig,
) -> Tuple[SimulationSummary, List[Dict[str, Any]]]:
    """Pool worker: run one cell under a fresh event log.

    Returns the summary plus the log's serialized span rows (plain
    dicts, so they pickle across the pool boundary).  The worker's root
    span is the world's ``run`` phase; the parent re-roots it under its
    own sweep phase.  The log never touches the trajectory, so the
    summary is bit-identical to :func:`repro.sim.runner.run_simulation`.
    """
    log = EventLog()
    summary = World(config, log=log).run()
    return summary, log.span_rows()


def _run_cell_recorded(
    task: Tuple[SimulationConfig, str, bool],
) -> Tuple[SimulationSummary, Optional[List[Dict[str, Any]]]]:
    """Pool worker: run one cell with the flight recorder armed.

    ``task`` is ``(config, bundle_dir, traced)`` — a single tuple so
    the worker stays a one-argument, picklable ``pool.map`` target.  On
    any exception the recorder flushes a postmortem bundle to
    ``bundle_dir`` before the exception propagates to the parent; a
    clean run with monitor violations flushes one too.  The bundle path
    is keyed by grid index in the parent, so reruns land in the same
    place regardless of pool scheduling.
    """
    from ..obs.blackbox import BlackBoxRecorder
    from ..obs.monitors import MonitorSet
    from ..sim.runner import _flush_postmortem

    config, bundle_dir, traced = task
    recorder = BlackBoxRecorder()
    log = EventLog() if traced else None
    monitors = MonitorSet(log=log, blackbox=recorder)
    world = World(config, log=log, monitors=monitors, blackbox=recorder)
    try:
        summary = world.run()
    except BaseException as exc:
        _flush_postmortem(
            recorder, bundle_dir, reason="exception", config=config,
            monitors=monitors, log=log, world=world, error=exc,
        )
        raise
    if monitors.violations:
        _flush_postmortem(
            recorder, bundle_dir, reason="violation", config=config,
            monitors=monitors, log=log,
        )
    return summary, log.span_rows() if log is not None else None


#: Miss-execution worker functions by task kind.  The pool resolves
#: the same table by name inside its workers, so serial and pooled
#: execution run exactly the same code over the same payloads.
_TASK_FNS = {
    "run": run_simulation,
    "traced": _run_cell_traced,
    "recorded": _run_cell_recorded,
}


def _resolve_jobs(jobs: Optional[int]) -> int:
    """The worker count: ``jobs``, else :func:`default_jobs`."""
    n_jobs = default_jobs() if jobs is None else int(jobs)
    if n_jobs < 1:
        raise ValueError("jobs must be >= 1")
    return n_jobs


def _resolve_store(store):
    """The result store to consult: explicit argument, else
    ``REPRO_STORE`` (``None`` when unset — no directory is created)."""
    if store is not None:
        return store
    from .store import ResultStore

    return ResultStore.from_env()


def _execute(
    kind: str,
    payloads: Sequence[Any],
    n_jobs: int,
) -> Iterator[Tuple[int, Any]]:
    """Run miss payloads, yielding ``(payload index, result)`` as they
    finish.

    Serial (``n_jobs == 1`` or a single payload) runs in-process, in
    order; otherwise on a pool opened here and closed — workers joined
    — when the stream ends or is abandoned.
    """
    if n_jobs == 1 or len(payloads) == 1:
        fn = _TASK_FNS[kind]
        for j, payload in enumerate(payloads):
            yield j, fn(payload)
        return
    from .pool import WarmPool

    with WarmPool(min(n_jobs, len(payloads)), start_method=_pool_start_method()) as pool:
        yield from pool.run_iter(kind, payloads)


def _stream(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int],
    store,
    log,
    postmortem_dir: Optional[Union[str, Path]],
) -> Iterator[Tuple[int, SimulationSummary, str, Optional[List[Dict[str, Any]]]]]:
    """The one miss loop: lookup, payloads, execute, store.

    Yields ``(index, summary, source, rows)``: store hits first, in
    index order, then misses in completion order; ``rows`` are a traced
    miss's serialized spans (None otherwise).  Store hits are marked as
    ``executor.store_hit`` events on ``log``'s open phase.
    """
    from . import cache  # resolved per call, so a wrapped cache_lookup is seen

    n_jobs = _resolve_jobs(jobs)
    store = _resolve_store(store)

    misses: List[int] = []
    for i, cfg in enumerate(configs):
        hit = cache.cache_lookup(cfg, store)
        if hit is None:
            misses.append(i)
            continue
        if log.enabled:
            log.mark(
                "executor.store_hit",
                cell=i, scheduler=cfg.scheduler, erp=cfg.erp, seed=cfg.seed,
            )
        yield i, hit, "store", None
    if not misses:
        return
    if postmortem_dir is not None:
        root = Path(postmortem_dir)
        kind = "recorded"
        payloads: List[Any] = [
            (configs[i], str(root / f"cell-{i:04d}"), log.enabled) for i in misses
        ]
    elif log.enabled:
        kind = "traced"
        payloads = [configs[i] for i in misses]
    else:
        kind = "run"
        payloads = [configs[i] for i in misses]

    for j, out in _execute(kind, payloads, n_jobs):
        i = misses[j]
        summary, rows = (out, None) if kind == "run" else out
        if store is not None:
            store.put(configs[i], summary)
        yield i, summary, "run", rows


def map_configs(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int] = None,
    log=None,
    postmortem_dir: Optional[Union[str, Path]] = None,
    store=None,
) -> List[SimulationSummary]:
    """Run every configuration through the result store and the pool;
    summaries come back aligned with ``configs``.

    This is the grid-order reassembly of :func:`iter_configs`' stream,
    so the output is bit-identical to running the configurations
    serially whatever order workers finish in.  Store lookups and
    writes happen in the parent; only misses are executed (on a pool
    opened and closed by this call when ``jobs > 1``).  ``store`` is a
    :class:`repro.experiments.store.ResultStore` (default: the one
    named by ``REPRO_STORE``, or none).

    With an event ``log``, this call's ``executor.map`` phase carries
    the ``cells``, ``jobs`` and ``cache_hits`` counts, store hits
    become ``executor.store_hit`` marks on it, and each miss runs under
    its own log whose span rows are absorbed under it in miss order
    (deterministic id renumbering) once every cell is in — the merged
    trace is identical in structure for any ``jobs`` value.

    With ``postmortem_dir``, every miss runs with the flight recorder
    armed and writes ``<postmortem_dir>/cell-<grid index>`` bundles on
    failure or monitor violation — keyed by grid index, so a crashing
    cell lands at the same path however the pool schedules it.
    """
    log = log if log is not None else NULL_LOG
    results: List[Optional[SimulationSummary]] = [None] * len(configs)
    traced: Dict[int, List[Dict[str, Any]]] = {}
    n_jobs = _resolve_jobs(jobs)
    with log.phase("executor.map", cells=len(configs), jobs=n_jobs) as sweep_span:
        hits = 0
        for i, summary, source, rows in _stream(
            configs, n_jobs, store, log, postmortem_dir
        ):
            results[i] = summary
            hits += source == "store"
            if rows is not None:
                traced[i] = rows
        sweep_span.set(cache_hits=hits)
        for i in sorted(traced):
            log.absorb(traced[i], parent=sweep_span, root_attrs={"cell": i, "cache": "miss"})
    return results  # type: ignore[return-value]


def iter_configs(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int] = None,
    store=None,
    postmortem_dir: Optional[Union[str, Path]] = None,
) -> Iterator[Tuple[int, SimulationSummary, str]]:
    """Stream per-cell results as they finish.

    Yields ``(index, summary, source)`` where ``index`` points into
    ``configs`` and ``source`` is ``"store"`` or ``"run"``.  Store hits
    are yielded first (in index order); misses follow in *completion*
    order — callers that need the serial sequence reassemble by index
    (:func:`map_configs` does).  Fresh results are stored as they
    arrive, so a second identical submission is all hits.  With
    ``postmortem_dir``, misses run with the flight recorder armed, same
    bundle layout as :func:`map_configs`.
    """
    for i, summary, source, _rows in _stream(
        configs, jobs, store, NULL_LOG, postmortem_dir
    ):
        yield i, summary, source


def sweep_grid(
    scale,
    schedulers: Sequence[str],
    erps: Sequence[float],
) -> List[CellKey]:
    """The sweep's cell keys in canonical (serial) grid order:
    scheduler-major, then ERP, then seed."""
    return [
        (sched, float(erp), int(seed))
        for sched in schedulers
        for erp in erps
        for seed in scale.seeds
    ]


def grid_configs(
    scale,
    schedulers: Sequence[str],
    erps: Sequence[float],
    **overrides,
) -> Tuple[List[CellKey], List[SimulationConfig]]:
    """The grid's keys plus the exact configurations the serial
    :func:`repro.experiments.common.run_cell` loop would build."""
    keys = sweep_grid(scale, schedulers, erps)
    configs = [
        scale.base_config(scheduler=sched, erp=erp, **overrides).with_overrides(
            seed=seed
        )
        for sched, erp, seed in keys
    ]
    return keys, configs


def map_cells(
    scale,
    schedulers: Sequence[str],
    erps: Sequence[float],
    jobs: Optional[int] = None,
    log=None,
    postmortem_dir: Optional[Union[str, Path]] = None,
    store=None,
    **overrides,
) -> Dict[CellKey, SimulationSummary]:
    """Execute a whole ERP x scheduler sweep grid, one run per key.

    Builds the exact configurations the serial :func:`run_cell` loop
    would build (``scale.base_config(scheduler=..., erp=...)`` with the
    seed overridden), fans store misses out over the pool, and returns
    the summaries keyed by ``(scheduler, erp, seed)``.  Grid order is
    preserved internally so a downstream reassembly that walks
    ``sweep_grid`` order is bit-identical to the serial sweep.
    """
    keys, configs = grid_configs(scale, schedulers, erps, **overrides)
    summaries = map_configs(
        configs, jobs=jobs, log=log, postmortem_dir=postmortem_dir, store=store,
    )
    return dict(zip(keys, summaries))
