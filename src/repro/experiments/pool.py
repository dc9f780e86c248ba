"""Warm worker pool for sweep fan-out — the executor's only pool.

Every multi-worker ``map_configs`` / ``iter_configs`` call runs its
misses on a :class:`WarmPool`: with ``warm=True`` the process-wide
shared pool from :func:`get_warm_pool`, which keeps a fixed set of
worker processes alive across calls, so repeated sweeps — the ERP grids
behind every figure, and the thousands of rollouts a learned charging
policy needs — pay interpreter start, imports and simulator warm-up
once per worker instead of once per sweep; with ``warm=False`` (the
default) a pool opened for the call and closed, workers joined, before
the call returns.  Either way:

* **warm reuse** — workers survive between ``run`` / ``run_iter``
  calls; module-level caches (the scheduler ``DistanceCache``, the
  Dijkstra weight-validation cache, compiled regexes, ...) stay hot;
* **health** — the parent dispatches tasks over a dedicated duplex
  pipe per worker (one task outstanding each), so it always knows
  which task a worker holds: a worker that dies mid-task is detected
  (its process sentinel trips ``multiprocessing.connection.wait``),
  respawned, and its task resubmitted (``pool.respawns``).  Per-worker
  pipes mean no shared queue locks — a SIGKILLed worker can never
  strand a lock another worker needs.  :meth:`ping` round-trips a
  no-op task and :attr:`healthy` checks process liveness;
* **idle reaping** — with ``idle_timeout_s`` set, a pool that has not
  run anything for that long releases its workers on the next
  :meth:`reap_if_idle` (the sweep service calls it between
  connections); the next run transparently cold-starts;
* **shipping** — a worker sends its result back pickled over its own
  pipe.

Determinism contract: the pool runs the executor's module-level worker
functions over the same payloads as the serial path and the parent
reassembles by task index, so results are byte-identical to the serial
executor whatever the scheduling — pool reuse amortizes cost, never
state that could leak into a trajectory (workers only ever receive
frozen configs and return summaries).

Importing :mod:`repro.experiments.executor` imports nothing from here
and spawns no processes: the pool module loads on the first
multi-worker fan-out.

Observability: ``run``/``run_iter`` accept an ``Instruments`` registry
and record ``pool.warm_hits`` / ``pool.respawns`` counters and the
``pool.queue_depth`` gauge; the same totals are kept in the pool's
:attr:`stats` dict for instrument-free callers.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import time
from collections import deque
from multiprocessing import connection
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.instruments import DEFAULT_LATENCY_BUCKETS, NULL_INSTRUMENTS
from ..obs.schema import POOL_STATS

__all__ = ["WarmPool", "get_warm_pool", "shutdown_warm_pool"]

#: How long the parent blocks in ``connection.wait`` per poll
#: (seconds).  Worker results and death sentinels wake it immediately;
#: this only bounds the idle-loop tick.
_POLL_S = 0.2


def _resolve_task(kind: str):
    """A task kind's worker function (resolved in the worker, so spawn
    children import exactly what the task needs)."""
    if kind == "ping":
        return lambda payload: ("pong", os.getpid())
    from . import executor

    try:
        return executor._TASK_FNS[kind]
    except KeyError:
        raise ValueError(f"unknown warm-pool task kind {kind!r}") from None


def _worker_stats_delta(
    kind: str, payload: Any, elapsed_s: float, instruments
) -> Dict[str, Any]:
    """Book one task into the worker's local registry and snapshot it.

    The registry is fresh per task (installed by the loop before the
    task ran, so task code can record into it via
    ``repro.obs.live.worker_instruments()``), which makes each snapshot
    a *delta* — the parent-side MetricsBus just folds deltas additively
    in whatever order replies arrive.

    ``worker.tasks`` counts *cells*, matching the pool's weighted
    ``tasks`` stat: a shape-batched payload covering k sweep cells
    counts k, so a scrape of the worker aggregate reconciles with the
    parent-side totals.
    """
    cells = len(payload) if kind == "batch" else 1
    instruments.counter("worker.tasks").inc(cells)
    instruments.counter(f"worker.tasks.{kind}").inc(cells)
    instruments.histogram("worker.task_s", DEFAULT_LATENCY_BUCKETS).observe(elapsed_s)
    try:
        import resource

        instruments.gauge("worker.maxrss_kb").set(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
    except Exception:  # pragma: no cover - non-POSIX platform
        pass
    return instruments.snapshot()


def _worker_main(worker_id: int, conn, stream: bool = False) -> None:
    """Warm worker loop: serve ``(gen, task_id, kind, payload)`` tasks
    from the parent's pipe until EOF or the ``None`` sentinel arrives.

    The simulator import graph (numpy and ``repro``, nothing else) is
    loaded before the loop so each worker pays interpreter/import
    warm-up exactly once, whatever the start method; module-level
    caches accumulate across tasks.  The pipe is private to this
    worker — a crash here can never strand a lock a sibling needs, and
    ``conn.send`` writes synchronously, so a result the parent sees is
    a result that really completed.

    With ``stream`` on (the pool has a MetricsBus attached), each reply
    carries a per-task instrument snapshot delta as its final element —
    piggybacked on the existing pipe, no extra channel.  Instruments
    never touch the task payload or result, so simulation output is
    byte-identical either way.
    """
    from ..sim import runner  # noqa: F401  (warm the simulator import graph)

    if stream:
        from ..obs.instruments import Instruments
        from ..obs.live import set_worker_instruments

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        if msg is None:
            break
        gen, task_id, kind, payload = msg
        delta: Optional[Dict[str, Any]] = None
        if stream:
            local = Instruments()
            set_worker_instruments(local)
        t0 = time.perf_counter()
        try:
            result = _resolve_task(kind)(payload)
        except BaseException as exc:  # ship the failure, keep the worker alive
            try:
                blob: Optional[bytes] = pickle.dumps(exc)
            except Exception:
                blob = None
            if stream:
                delta = _worker_stats_delta(kind, payload, time.perf_counter() - t0, local)
            reply = ("error", gen, task_id, blob, repr(exc), delta)
        else:
            if stream:
                delta = _worker_stats_delta(kind, payload, time.perf_counter() - t0, local)
            reply = ("done", gen, task_id, result, delta)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break
    conn.close()


def _rebuild_exc(blob: Optional[bytes], text: str) -> BaseException:
    """The worker's exception, restored (or wrapped when unpicklable)."""
    if blob is not None:
        try:
            exc = pickle.loads(blob)
            if isinstance(exc, BaseException):
                return exc
        except Exception:
            pass
    return RuntimeError(f"warm-pool worker task failed: {text}")


class _Worker:
    """One warm worker: its process plus the parent end of its private
    duplex pipe and the ``(task_id, kind, payload)`` it currently holds
    (None when idle) — which is what makes crash resubmission exact."""

    def __init__(self, ctx, wid: int, stream: bool = False) -> None:
        self.wid = wid
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(wid, child_conn, stream),
            daemon=True,
            name=f"repro-warm-{wid}",
        )
        self.proc.start()
        child_conn.close()  # the parent keeps only its own end
        self.task: Optional[Tuple[int, str, Any]] = None
        self.dispatched_at: float = 0.0

    def dispatch(self, gen: int, task: Tuple[int, str, Any]) -> None:
        task_id, kind, payload = task
        self.conn.send((gen, task_id, kind, payload))
        self.task = task
        self.dispatched_at = time.perf_counter()

    def discard(self) -> None:
        """Drop the parent-side handles (the process itself is managed
        by the caller: joined when dead, sentineled when live)."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class WarmPool:
    """A persistent pool of warm worker processes (see module docs).

    Use as a context manager or call :meth:`close` explicitly; module
    users normally go through :func:`get_warm_pool`, which keeps one
    process-wide instance alive and registers an ``atexit`` teardown.
    """

    def __init__(
        self,
        jobs: int,
        start_method: Optional[str] = None,
        idle_timeout_s: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        from .executor import _pool_start_method

        self.jobs = int(jobs)
        self.start_method = start_method or _pool_start_method()
        self.idle_timeout_s = idle_timeout_s
        self._ctx = multiprocessing.get_context(self.start_method)
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._generation = 0
        self._last_used = time.monotonic()
        self._closed = False
        #: Lifetime totals, mirrored into instruments when provided.
        #: Keys come from the declared schema — the schema test asserts
        #: this dict and POOL_STATS can never drift apart.
        self.stats: Dict[str, int] = POOL_STATS.new_stats()
        #: Live-telemetry bus (``repro.obs.live.MetricsBus``); when
        #: attached, workers spawned afterwards stream per-task
        #: instrument deltas that the parent folds into the bus.
        self._bus = None

    def attach_bus(self, bus) -> None:
        """Arm worker stat streaming into ``bus`` for future spawns.

        Call before the first run (the sweep service does) so every
        worker streams; workers already alive keep their non-streaming
        loop until they are respawned or reaped.
        """
        self._bus = bus

    def _count(self, key: str, obs, amount: int = 1) -> None:
        """Bump a schema-declared stat and its mirrored counter."""
        self.stats[key] += amount
        obs.counter(POOL_STATS.counter_name(key)).inc(amount)

    def health(self) -> Dict[str, Any]:
        """Per-worker liveness rows plus pool-level totals, the
        substrate of the live plane's ``/healthz`` payload."""
        workers = [
            {
                "wid": w.wid,
                "pid": w.proc.pid,
                "alive": w.proc.is_alive(),
                "busy": w.task is not None,
            }
            for w in self._workers.values()
        ]
        return {
            "jobs": self.jobs,
            "workers_alive": self.workers_alive,
            "closed": self._closed,
            "streaming": self._bus is not None,
            "generation": self._generation,
            "respawns": self.stats["respawns"],
            "reaps": self.stats["reaps"],
            "workers": workers,
        }

    # -- lifecycle ----------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        wid = self._next_worker_id
        self._next_worker_id += 1
        worker = _Worker(self._ctx, wid, stream=self._bus is not None)
        self._workers[wid] = worker
        return worker

    @property
    def healthy(self) -> bool:
        """Whether every worker slot holds a live process."""
        return (
            not self._closed
            and len(self._workers) == self.jobs
            and all(w.proc.is_alive() for w in self._workers.values())
        )

    @property
    def workers_alive(self) -> int:
        """Live worker count (0 when reaped or not yet started)."""
        return sum(w.proc.is_alive() for w in self._workers.values())

    def ping(self, instruments=None) -> List[int]:
        """Round-trip one no-op task per worker slot; returns the pids
        that answered.  Verifies the dispatch/result plumbing end to
        end (one task is outstanding per worker, so a full-strength
        pool answers with one pid per slot)."""
        pongs = self.run("ping", [None] * self.jobs, instruments=instruments)
        return sorted({pid for _tag, pid in pongs})

    def reap_if_idle(self, now: Optional[float] = None) -> bool:
        """Release the workers if the pool has been idle longer than
        ``idle_timeout_s``; the next run cold-starts transparently."""
        if self.idle_timeout_s is None or not self._workers:
            return False
        if (time.monotonic() if now is None else now) - self._last_used < self.idle_timeout_s:
            return False
        self._stop_workers()
        self._count("reaps", NULL_INSTRUMENTS)
        return True

    def _stop_workers(self) -> None:
        for worker in self._workers.values():
            if worker.task is not None:
                # Still running a task of an abandoned run (a sibling
                # raised): nobody will read its result, so don't wait.
                worker.proc.terminate()
                continue
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):  # already dead
                pass
        deadline = time.monotonic() + 5.0
        for worker in self._workers.values():
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            worker.discard()
        self._workers.clear()

    def close(self) -> None:
        """Stop every worker and release their pipes (idempotent)."""
        if self._closed:
            return
        self._stop_workers()
        self._closed = True

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- execution ----------------------------------------------------

    def run_iter(
        self,
        kind: str,
        payloads: Sequence[Any],
        instruments=None,
        weights: Optional[Sequence[int]] = None,
    ) -> Iterator[Tuple[int, Any]]:
        """Execute payloads on the pool, yielding ``(index, result)``
        in *completion* order.

        The parent keeps exactly one task outstanding per worker, so a
        dead worker's in-flight task is known precisely: it is requeued
        and the worker respawned (``pool.respawns``).  A task that
        *raises* (as opposed to the worker dying) propagates the
        worker's exception to the caller, and the pool stays usable —
        results of abandoned same-run tasks are discarded by generation
        on the next run.

        ``weights`` gives the number of *cells* each payload stands for
        (shape-batched executor payloads cover several sweep cells), so
        the ``tasks`` and ``warm_hits`` stats keep counting cells: a
        k-cell batch counts k, not 1.  Without weights the historical
        accounting holds — one task per payload, one warm hit per run.
        """
        if self._closed:
            raise RuntimeError("warm pool is closed")
        obs = NULL_INSTRUMENTS if instruments is None else instruments
        payloads = list(payloads)
        if weights is not None and len(weights) != len(payloads):
            raise ValueError("weights must align with payloads")
        self._generation += 1
        gen = self._generation
        self.reap_if_idle()
        for wid in [w for w, wk in self._workers.items() if not wk.proc.is_alive()]:
            worker = self._workers.pop(wid)
            worker.proc.join(timeout=0.1)
            worker.discard()
        if self._workers:
            warm_inc = int(sum(weights)) if weights is not None else 1
            self._count("warm_hits", obs, warm_inc)
        else:
            self._count("cold_starts", obs)
        while len(self._workers) < self.jobs:
            self._spawn_worker()
        #: Tasks not yet dispatched; a dispatch buffered behind a stale
        #: in-flight task just waits in that worker's pipe.
        backlog = deque(
            (task_id, kind, payload) for task_id, payload in enumerate(payloads)
        )
        remaining = len(payloads)
        run_t0 = time.perf_counter()
        h_wait = obs.histogram("pool.queue_wait_s", DEFAULT_LATENCY_BUCKETS)
        h_task = obs.histogram("pool.task_s", DEFAULT_LATENCY_BUCKETS)
        for worker in self._workers.values():
            worker.task = None  # anything older belongs to a dead generation
            if backlog:
                worker.dispatch(gen, backlog.popleft())
                h_wait.observe(worker.dispatched_at - run_t0)
        self._count(
            "tasks", obs, int(sum(weights)) if weights is not None else len(payloads)
        )
        depth = obs.gauge("pool.queue_depth")
        depth.set(remaining)
        try:
            while remaining:
                by_handle = {}
                for worker in self._workers.values():
                    by_handle[worker.conn] = worker
                    by_handle[worker.proc.sentinel] = worker
                ready = connection.wait(list(by_handle), timeout=_POLL_S)
                seen = set()
                for handle in ready:
                    worker = by_handle[handle]
                    if worker.wid in seen:  # conn and sentinel both tripped
                        continue
                    seen.add(worker.wid)
                    # Results buffered before a crash are still readable:
                    # drain the pipe first, replace only a silent corpse.
                    if worker.conn.poll():
                        try:
                            msg = worker.conn.recv()
                        except (EOFError, OSError):
                            self._replace(worker, backlog, gen, obs, run_t0, h_wait)
                            continue
                        for item in self._consume(
                            worker, msg, gen, backlog, obs, run_t0, h_wait, h_task
                        ):
                            remaining -= 1
                            depth.set(remaining)
                            yield item
                    elif not worker.proc.is_alive():
                        self._replace(worker, backlog, gen, obs, run_t0, h_wait)
        finally:
            self._last_used = time.monotonic()

    def _consume(
        self,
        worker: _Worker,
        msg: Tuple[Any, ...],
        gen: int,
        backlog,
        obs,
        run_t0: float,
        h_wait,
        h_task,
    ) -> Iterator[Tuple[int, Any]]:
        """Process one message off a worker's pipe; yields a completed
        ``(task_id, result)`` when the message belongs to this run."""
        tag, mgen = msg[0], msg[1]
        if mgen != gen:  # abandoned task from an aborted earlier run
            return
        if self._bus is not None:
            self._bus.absorb(msg[-1], worker.wid)
        if tag == "done":
            _, _, task_id, result, _delta = msg
            h_task.observe(time.perf_counter() - worker.dispatched_at)
            worker.task = None
            if backlog:
                worker.dispatch(gen, backlog.popleft())
                h_wait.observe(worker.dispatched_at - run_t0)
            yield task_id, result
        else:  # "error"
            _, _, task_id, blob, text, _delta = msg
            worker.task = None
            raise _rebuild_exc(blob, text)

    def _replace(self, worker: _Worker, backlog, gen: int, obs, run_t0: float, h_wait) -> None:
        """Respawn a crashed worker; its in-flight task goes back to
        the front of the backlog and is redispatched immediately."""
        self._workers.pop(worker.wid, None)
        worker.proc.join(timeout=0.1)
        lost = worker.task
        worker.discard()
        replacement = self._spawn_worker()
        self._count("respawns", obs)
        if lost is not None:
            backlog.appendleft(lost)
        if backlog:
            replacement.dispatch(gen, backlog.popleft())
            h_wait.observe(replacement.dispatched_at - run_t0)

    def run(
        self,
        kind: str,
        payloads: Sequence[Any],
        instruments=None,
        weights: Optional[Sequence[int]] = None,
    ) -> List[Any]:
        """Execute payloads and return results in payload order."""
        payloads = list(payloads)
        out: List[Any] = [None] * len(payloads)
        for index, result in self.run_iter(
            kind, payloads, instruments=instruments, weights=weights
        ):
            out[index] = result
        return out


_default_pool: Optional[WarmPool] = None
_atexit_registered = False


def get_warm_pool(
    jobs: int,
    start_method: Optional[str] = None,
    idle_timeout_s: Optional[float] = None,
) -> WarmPool:
    """The process-wide shared warm pool, created (or re-sized) on
    demand.

    Reuses the existing pool when ``jobs`` and the start method match;
    a different shape closes the old pool and starts fresh.  The first
    call registers an ``atexit`` teardown, so library users never leak
    worker processes.
    """
    global _default_pool, _atexit_registered
    from .executor import _pool_start_method

    method = start_method or _pool_start_method()
    pool = _default_pool
    if (
        pool is not None
        and not pool._closed
        and pool.jobs == jobs
        and pool.start_method == method
    ):
        return pool
    if pool is not None:
        pool.close()
    _default_pool = WarmPool(jobs, start_method=method, idle_timeout_s=idle_timeout_s)
    if not _atexit_registered:
        atexit.register(shutdown_warm_pool)
        _atexit_registered = True
    return _default_pool


def shutdown_warm_pool() -> None:
    """Close the shared warm pool, if one exists (idempotent)."""
    global _default_pool
    if _default_pool is not None:
        _default_pool.close()
        _default_pool = None
