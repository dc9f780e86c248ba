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
reassembly of the same stream.

Batching: with ``REPRO_BATCH=1``, plain (untraced, unrecorded) misses
are grouped by :func:`repro.sim.batch.shape_signature` — identical
configurations up to seed / scheduler / erp / horizon — and each group
is chunked into shape-batches of at most ``REPRO_BATCH_SIZE`` cells
(default 16), each submitted as **one** pool payload that runs through
:func:`repro.sim.runner.run_batch` (the lockstep batched engine).
Per-cell summaries are bit-identical to the serial path, grid order is
reassembled exactly as before, every cell is stored individually
(``source="batch"`` provenance in the result store), and the pool's
``tasks`` stat is weighted so a k-cell batch counts k cells, not one
payload.

Observability: pass an :class:`repro.obs.Instruments` registry to
record ``executor.cells`` / ``executor.store_hits`` /
``executor.cache_misses`` counters and the ``executor.map`` phase timer
(the pool adds ``pool.*`` counters).  Pass a
:class:`repro.obs.SpanTracer` as ``spans`` to :func:`map_configs` and
the fan-out becomes part of the flight-recorder trace: every miss runs
through :func:`_run_cell_traced` (in the pool when ``jobs > 1``), its
serialized child spans are merged under the parent ``executor.map``
span in miss order with deterministically renumbered ids, and store
hits are recorded as ``executor.store_hit`` events — so a ``--jobs 4``
trace reads exactly like the serial one.
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs.instruments import NULL_INSTRUMENTS
from ..obs.spans import NULL_TRACER, SpanTracer
from ..sim.config import SimulationConfig
from ..sim.metrics import SimulationSummary
from ..sim.runner import run_simulation
from ..sim.world import World

__all__ = [
    "CellKey",
    "default_batch_size",
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


def default_batch_size() -> int:
    """Cells per shape-batch payload when ``REPRO_BATCH=1``.

    ``REPRO_BATCH_SIZE`` overrides the default of 16 — small enough
    that a multi-worker pool still load-balances, large enough to
    amortize the per-tick Python dispatch across the batch.
    """
    value = os.environ.get("REPRO_BATCH_SIZE", "").strip()
    if not value:
        return 16
    try:
        n = int(value)
    except ValueError as exc:
        raise ValueError(
            f"REPRO_BATCH_SIZE must be an integer, got {value!r}"
        ) from exc
    if n < 1:
        raise ValueError("REPRO_BATCH_SIZE must be >= 1")
    return n


def _batch_requested() -> bool:
    """Whether the executor should submit shape-batches
    (``REPRO_BATCH=1``; see :mod:`repro.sim.batch`)."""
    from ..sim.soa import batch_enabled

    return batch_enabled()


def _batch_payloads(
    configs: Sequence[SimulationConfig], misses: Sequence[int]
) -> Tuple[List[List[int]], List[Tuple[SimulationConfig, ...]]]:
    """Group missed cells into shape-batch payloads.

    Misses are grouped by :func:`repro.sim.batch.shape_signature`
    (preserving miss order within a group — the batched engine returns
    summaries in input order) and chunked to ``REPRO_BATCH_SIZE``.
    Returns ``(chunks, payloads)`` where ``chunks[j]`` lists the
    positions *within* ``misses`` that payload ``j`` covers.
    """
    from ..sim.batch import shape_signature

    size = default_batch_size()
    groups: Dict[str, List[int]] = {}
    for j, i in enumerate(misses):
        groups.setdefault(shape_signature(configs[i]), []).append(j)
    chunks: List[List[int]] = []
    for positions in groups.values():
        for k in range(0, len(positions), size):
            chunks.append(positions[k : k + size])
    payloads = [tuple(configs[misses[j]] for j in chunk) for chunk in chunks]
    return chunks, payloads


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
    """Pool worker: run one cell under a fresh span tracer.

    Returns the summary plus the serialized span rows (plain dicts, so
    they pickle across the pool boundary).  The worker's root span is
    the world's ``run`` span; the parent re-roots it under its own
    sweep span.  Spans never touch the trajectory, so the summary is
    bit-identical to :func:`repro.sim.runner.run_simulation`.
    """
    tracer = SpanTracer()
    summary = World(config, spans=tracer).run()
    return summary, tracer.to_rows()


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
    from ..obs import BlackBoxRecorder, MonitorSet
    from ..sim.runner import _flush_postmortem

    config, bundle_dir, traced = task
    recorder = BlackBoxRecorder()
    monitors = MonitorSet(blackbox=recorder)
    tracer = SpanTracer() if traced else None
    kwargs: Dict[str, Any] = {"monitors": monitors, "blackbox": recorder}
    if tracer is not None:
        kwargs["spans"] = tracer
    world = World(config, **kwargs)
    try:
        summary = world.run()
    except BaseException as exc:
        _flush_postmortem(
            recorder, bundle_dir, reason="exception", config=config,
            monitors=monitors, spans=tracer, world=world, error=exc,
        )
        raise
    if monitors.violations:
        _flush_postmortem(
            recorder, bundle_dir, reason="violation", config=config,
            monitors=monitors, spans=tracer,
        )
    return summary, tracer.to_rows() if tracer is not None else None


def _run_cell_batch(
    configs: Sequence[SimulationConfig],
) -> List[SimulationSummary]:
    """Pool worker: run one shape-batch of cells through the lockstep
    batched engine (:func:`repro.sim.runner.run_batch`).

    Summaries come back in payload order, each bit-identical to its
    serial :func:`run_simulation` counterpart; cells the batched
    kernels cannot represent fall back serially inside ``run_batch``.
    """
    from ..sim.runner import run_batch

    return run_batch(list(configs))


#: Miss-execution worker functions by task kind.  The pool resolves
#: the same table by name inside its workers, so serial and pooled
#: execution run exactly the same code over the same payloads.
_TASK_FNS = {
    "run": run_simulation,
    "traced": _run_cell_traced,
    "recorded": _run_cell_recorded,
    "batch": _run_cell_batch,
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
    instruments,
    weights: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[int, Any]]:
    """Run miss payloads, yielding ``(payload index, result)`` as they
    finish.

    Serial (``n_jobs == 1`` or a single payload) runs in-process, in
    order; otherwise on a pool opened here and closed — workers joined
    — when the stream ends or is abandoned.  ``weights`` (cells per
    payload) keeps the pool's ``tasks`` stat counting cells when
    payloads are shape-batches.
    """
    if n_jobs == 1 or len(payloads) == 1:
        fn = _TASK_FNS[kind]
        for j, payload in enumerate(payloads):
            yield j, fn(payload)
        return
    from .pool import WarmPool

    with WarmPool(min(n_jobs, len(payloads)), start_method=_pool_start_method()) as pool:
        yield from pool.run_iter(kind, payloads, instruments=instruments, weights=weights)


def _stream(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int],
    store,
    obs,
    sp,
    postmortem_dir: Optional[Union[str, Path]],
) -> Iterator[Tuple[int, SimulationSummary, str, Optional[List[Dict[str, Any]]]]]:
    """The one miss loop: lookup, payloads, execute, store.

    Yields ``(index, summary, source, rows)``: store hits first, in
    index order, then misses in completion order; ``rows`` are a traced
    miss's serialized spans (None otherwise).  Store hits become
    ``executor.store_hit`` events on ``sp``'s open span.
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
        if sp.enabled:
            sp.event(
                "executor.store_hit",
                cell=i, scheduler=cfg.scheduler, erp=cfg.erp, seed=cfg.seed,
            )
        yield i, hit, "store", None
    obs.counter("executor.cells").inc(len(configs))
    obs.counter("executor.store_hits").inc(len(configs) - len(misses))
    obs.counter("executor.cache_misses").inc(len(misses))
    if not misses:
        return
    chunks: List[List[int]] = []
    weights: Optional[List[int]] = None
    if postmortem_dir is not None:
        root = Path(postmortem_dir)
        kind = "recorded"
        payloads: List[Any] = [
            (configs[i], str(root / f"cell-{i:04d}"), sp.enabled) for i in misses
        ]
    elif sp.enabled:
        kind = "traced"
        payloads = [configs[i] for i in misses]
    elif _batch_requested():
        kind = "batch"
        chunks, payloads = _batch_payloads(configs, misses)
        weights = [len(c) for c in chunks]
    else:
        kind = "run"
        payloads = [configs[i] for i in misses]

    source = "batch" if kind == "batch" else "run"
    for j, out in _execute(kind, payloads, n_jobs, obs, weights):
        if kind == "batch":
            cells = [(misses[jj], summary, None) for jj, summary in zip(chunks[j], out)]
        elif kind == "run":
            cells = [(misses[j], out, None)]
        else:  # traced / recorded: (summary, rows)
            cells = [(misses[j], out[0], out[1])]
        for i, summary, rows in cells:
            if store is not None:
                store.put(configs[i], summary, source=source)
            yield i, summary, source, rows


def map_configs(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int] = None,
    instruments=None,
    spans=None,
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

    With a ``spans`` tracer, each miss runs under a child tracer whose
    rows are absorbed under this call's ``executor.map`` span in miss
    order (deterministic id renumbering) once every cell is in, and
    store hits become ``executor.store_hit`` events — the merged trace
    is identical in structure for any ``jobs`` value.

    With ``postmortem_dir``, every miss runs with the flight recorder
    armed and writes ``<postmortem_dir>/cell-<grid index>`` bundles on
    failure or monitor violation — keyed by grid index, so a crashing
    cell lands at the same path however the pool schedules it.
    """
    obs = instruments if instruments is not None else NULL_INSTRUMENTS
    sp = spans if spans is not None else NULL_TRACER
    results: List[Optional[SimulationSummary]] = [None] * len(configs)
    traced: Dict[int, List[Dict[str, Any]]] = {}
    n_jobs = _resolve_jobs(jobs)
    with obs.timer("executor.map"), sp.span(
        "executor.map", cells=len(configs), jobs=n_jobs
    ) as sweep_span:
        hits = 0
        for i, summary, source, rows in _stream(
            configs, n_jobs, store, obs, sp, postmortem_dir
        ):
            results[i] = summary
            hits += source == "store"
            if rows is not None:
                traced[i] = rows
        sweep_span.set(cache_hits=hits)
        for i in sorted(traced):
            sp.absorb(traced[i], parent=sweep_span, root_attrs={"cell": i, "cache": "miss"})
    return results  # type: ignore[return-value]


def iter_configs(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int] = None,
    store=None,
    instruments=None,
    postmortem_dir: Optional[Union[str, Path]] = None,
) -> Iterator[Tuple[int, SimulationSummary, str]]:
    """Stream per-cell results as they finish.

    Yields ``(index, summary, source)`` where ``index`` points into
    ``configs`` and ``source`` is ``"store"``, ``"run"`` or ``"batch"``
    (a fresh cell computed through the batched engine under
    ``REPRO_BATCH=1``).  Store hits are yielded first (in index order);
    misses follow in *completion* order — callers that need the serial
    sequence reassemble by index (:func:`map_configs` does).  Shape-batched misses finish a chunk at a
    time and are streamed per cell.  Fresh results are stored as they
    arrive, so a second identical submission is all hits.  With
    ``postmortem_dir``, misses run with the flight recorder armed, same
    bundle layout as :func:`map_configs`.
    """
    obs = instruments if instruments is not None else NULL_INSTRUMENTS
    for i, summary, source, _rows in _stream(
        configs, jobs, store, obs, NULL_TRACER, postmortem_dir
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
    instruments=None,
    spans=None,
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
        configs, jobs=jobs, instruments=instruments, spans=spans,
        postmortem_dir=postmortem_dir, store=store,
    )
    return dict(zip(keys, summaries))
