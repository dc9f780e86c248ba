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
  each cell's store key is derived once, for its lookup and its put;
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
reassembly of the same stream.  Misses run grouped by deployment
(stable by seed): a grid varies the seed fastest, and in grid order a
sweep over more seeds than the deployment memo holds
(:data:`repro.sim.components.state.NETWORK_MEMO_SIZE`) would rebuild
every deployment for every cell.  Every miss is one serial
:class:`~repro.sim.world.World` run, in one of two task kinds: plain
(``run``) or under an event log (``traced``).  A grid never arms the
flight recorder; to record one cell, rerun its configuration through
:func:`repro.sim.runner.run_with_telemetry` with ``postmortem=``.

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
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

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


#: Miss-execution worker functions by task kind.  The pool resolves
#: the same table by name inside its workers, so serial and pooled
#: execution run exactly the same code over the same payloads.
_TASK_FNS = {
    "run": run_simulation,
    "traced": _run_cell_traced,
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


def _deployment(config: SimulationConfig) -> Tuple[Any, ...]:
    """What a cell's deployment memo entry depends on, seed first
    (:func:`repro.sim.components.state.static_network`)."""
    return (
        config.seed, config.n_sensors, config.side_length_m,
        config.comm_range_m, config.routing_metric,
    )


def _stream(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int],
    store,
    log,
) -> Iterator[Tuple[int, SimulationSummary, str, Optional[List[Dict[str, Any]]]]]:
    """The one miss loop: lookup, payloads, execute, store.

    Yields ``(index, summary, source, rows)``: store hits first, in
    index order, then misses in completion order (run grouped by
    deployment, stable by seed); ``rows`` are a traced miss's
    serialized spans (None otherwise).  Store hits are marked as
    ``executor.store_hit`` events on ``log``'s open phase.
    """
    from . import cache  # resolved per call, so a wrapped cache_lookup is seen

    n_jobs = _resolve_jobs(jobs)
    store = _resolve_store(store)

    # Each cell's key is derived once, for its lookup and (on a miss) its put.
    keys: List[Optional[str]] = (
        [None] * len(configs) if store is None else [store.key_for(c) for c in configs]
    )
    misses: List[int] = []
    for i, cfg in enumerate(configs):
        hit = cache.cache_lookup(cfg, store, keys[i])
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
    kind = "traced" if log.enabled else "run"
    # Grouped by deployment, so a worker derives each one once (see the
    # module docs); results still go back by index.
    misses.sort(key=lambda i: _deployment(configs[i]))
    payloads = [configs[i] for i in misses]

    for j, out in _execute(kind, payloads, n_jobs):
        i = misses[j]
        summary, rows = (out, None) if kind == "run" else out
        if store is not None:
            store.put(configs[i], summary, keys[i])
        yield i, summary, "run", rows


def map_configs(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int] = None,
    log=None,
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
    """
    log = log if log is not None else NULL_LOG
    results: List[Optional[SimulationSummary]] = [None] * len(configs)
    traced: Dict[int, List[Dict[str, Any]]] = {}
    n_jobs = _resolve_jobs(jobs)
    with log.phase("executor.map", cells=len(configs), jobs=n_jobs) as sweep_span:
        hits = 0
        for i, summary, source, rows in _stream(configs, n_jobs, store, log):
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
) -> Iterator[Tuple[int, SimulationSummary, str]]:
    """Stream per-cell results as they finish.

    Yields ``(index, summary, source)`` where ``index`` points into
    ``configs`` and ``source`` is ``"store"`` or ``"run"``.  Store hits
    are yielded first (in index order); misses follow in *completion*
    order — callers that need the serial sequence reassemble by index
    (:func:`map_configs` does).  Fresh results are stored as they
    arrive, so a second identical submission is all hits.
    """
    for i, summary, source, _rows in _stream(configs, jobs, store, NULL_LOG):
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
    :func:`repro.experiments.common.run_cell` loop would build
    (``base_config(...).with_overrides(seed=...)``), each built in one
    construction."""
    keys = sweep_grid(scale, schedulers, erps)
    configs = [
        scale.base_config(scheduler=sched, erp=erp, **overrides, seed=seed)
        for sched, erp, seed in keys
    ]
    return keys, configs


def map_cells(
    scale,
    schedulers: Sequence[str],
    erps: Sequence[float],
    jobs: Optional[int] = None,
    log=None,
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
    summaries = map_configs(configs, jobs=jobs, log=log, store=store)
    return dict(zip(keys, summaries))
