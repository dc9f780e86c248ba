"""The worker pool for sweep fan-out — the executor's only pool.

Every multi-worker ``map_configs`` / ``iter_configs`` call runs its
misses on a :class:`WarmPool` opened for that call and closed, workers
joined, before the call returns — one pool lifecycle.  Within the call:

* **warm workers** — each worker imports the simulator once and then
  serves tasks until the pool closes, so the deployment memo
  (:func:`repro.sim.components.state.static_network`: each seed's
  network, relay preorder and target-epoch clusters) stays hot across
  the cells of one fan-out; the executor hands misses out grouped by
  deployment, so a worker derives each deployment at most once, and a
  forked worker starts with the parent's memo;
* **crash recovery** — the parent dispatches tasks over a dedicated
  duplex pipe per worker (one task outstanding each), so it always
  knows which task a worker holds: a worker that dies mid-task is
  detected (its process sentinel trips
  ``multiprocessing.connection.wait``), respawned (counted in
  ``stats["respawns"]``), and its task resubmitted once; a task that
  kills a second worker raises instead of looping.  Per-worker pipes
  mean no shared queue locks — a SIGKILLed worker can never strand a
  lock another worker needs.  :meth:`ping` round-trips a no-op task and
  :attr:`healthy` checks process liveness;
* **shipping** — a worker sends its result back pickled over its own
  pipe.

Determinism contract: the pool runs the executor's module-level worker
functions over the same payloads as the serial path and the parent
reassembles by task index, so results are byte-identical to the serial
executor whatever the scheduling (workers only ever receive frozen
configs and return summaries).

Importing :mod:`repro.experiments.executor` imports nothing from here
and spawns no processes: the pool module loads on the first
multi-worker fan-out.

The pool counts what it does in one place, the plain :attr:`stats`
dict of lifetime totals: ``respawns`` and ``tasks``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque
from multiprocessing import connection
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["WarmPool"]

#: How long the parent blocks in ``connection.wait`` per poll
#: (seconds).  Worker results and death sentinels wake it immediately;
#: this only bounds the idle-loop tick.
_POLL_S = 0.2

#: How many times a task whose worker died is resubmitted.  A task that
#: kills a worker again (a deterministic C-level crash, an OOM kill) is
#: fatal: the run raises instead of respawning forever.
_RESUBMIT_LIMIT = 1


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


def _worker_main(worker_id: int, conn) -> None:
    """Worker loop: serve ``(gen, task_id, kind, payload)`` tasks from
    the parent's pipe until EOF or the ``None`` sentinel arrives.

    The simulator import graph (numpy and ``repro``, nothing else) is
    loaded before the loop so each worker pays interpreter/import
    warm-up exactly once, whatever the start method; module-level
    caches accumulate across tasks.  The pipe is private to this
    worker — a crash here can never strand a lock a sibling needs, and
    ``conn.send`` writes synchronously, so a result the parent sees is
    a result that really completed.
    """
    from ..sim import runner  # noqa: F401  (warm the simulator import graph)

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        if msg is None:
            break
        gen, task_id, kind, payload = msg
        try:
            reply = ("done", gen, task_id, _resolve_task(kind)(payload))
        except BaseException as exc:  # ship the failure, keep the worker alive
            try:
                blob: Optional[bytes] = pickle.dumps(exc)
            except Exception:
                blob = None
            reply = ("error", gen, task_id, blob, repr(exc))
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
    """One worker: its process plus the parent end of its private
    duplex pipe and the ``(task_id, kind, payload)`` it currently holds
    (None when idle) — which is what makes crash resubmission exact."""

    def __init__(self, ctx, wid: int) -> None:
        self.wid = wid
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(wid, child_conn),
            daemon=True,
            name=f"repro-warm-{wid}",
        )
        self.proc.start()
        child_conn.close()  # the parent keeps only its own end
        self.task: Optional[Tuple[int, str, Any]] = None

    def dispatch(self, gen: int, task: Tuple[int, str, Any]) -> None:
        task_id, kind, payload = task
        self.conn.send((gen, task_id, kind, payload))
        self.task = task

    def discard(self) -> None:
        """Drop the parent-side handles (the process itself is managed
        by the caller: joined when dead, sentineled when live)."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class WarmPool:
    """A pool of warm worker processes (see module docs).

    Use as a context manager or call :meth:`close` explicitly; workers
    start on the first run and live until the pool closes.
    """

    def __init__(self, jobs: int, start_method: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        from .executor import _pool_start_method

        self.jobs = int(jobs)
        self.start_method = start_method or _pool_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._generation = 0
        self._closed = False
        #: Lifetime totals: workers replaced after a crash, and tasks
        #: submitted.
        self.stats: Dict[str, int] = {"respawns": 0, "tasks": 0}

    # -- lifecycle ----------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        wid = self._next_worker_id
        self._next_worker_id += 1
        worker = _Worker(self._ctx, wid)
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
        """Live worker count (0 before the first run)."""
        return sum(w.proc.is_alive() for w in self._workers.values())

    def ping(self) -> List[int]:
        """Round-trip one no-op task per worker slot; returns the pids
        that answered.  Verifies the dispatch/result plumbing end to
        end (one task is outstanding per worker, so a full-strength
        pool answers with one pid per slot)."""
        pongs = self.run("ping", [None] * self.jobs)
        return sorted({pid for _tag, pid in pongs})

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
        self, kind: str, payloads: Sequence[Any]
    ) -> Iterator[Tuple[int, Any]]:
        """Execute payloads on the pool, yielding ``(index, result)``
        in *completion* order.

        The parent keeps exactly one task outstanding per worker, so a
        dead worker's in-flight task is known precisely: it is requeued
        and the worker respawned (``stats["respawns"]``).  A task that
        kills a second worker raises ``RuntimeError`` naming it.  A
        task that *raises* (as opposed to the worker dying) propagates
        the worker's exception to the caller, and the pool stays
        usable — results of abandoned same-run tasks are discarded by
        generation on the next run.
        """
        if self._closed:
            raise RuntimeError("warm pool is closed")
        payloads = list(payloads)
        self._generation += 1
        gen = self._generation
        for wid in [w for w, wk in self._workers.items() if not wk.proc.is_alive()]:
            worker = self._workers.pop(wid)
            worker.proc.join(timeout=0.1)
            worker.discard()
        while len(self._workers) < self.jobs:
            self._spawn_worker()
        #: Tasks not yet dispatched; a dispatch buffered behind a stale
        #: in-flight task just waits in that worker's pipe.
        backlog = deque(
            (task_id, kind, payload) for task_id, payload in enumerate(payloads)
        )
        #: Worker deaths per task id, checked against _RESUBMIT_LIMIT.
        losses: Dict[int, int] = {}
        remaining = len(payloads)
        for worker in self._workers.values():
            worker.task = None  # anything older belongs to a dead generation
            if backlog:
                worker.dispatch(gen, backlog.popleft())
        self.stats["tasks"] += len(payloads)
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
                        self._replace(worker, backlog, gen, losses)
                        continue
                    item = self._consume(worker, msg, gen, backlog)
                    if item is not None:
                        remaining -= 1
                        yield item
                elif not worker.proc.is_alive():
                    self._replace(worker, backlog, gen, losses)

    def _consume(
        self, worker: _Worker, msg: Tuple[Any, ...], gen: int, backlog
    ) -> Optional[Tuple[int, Any]]:
        """Process one message off a worker's pipe; returns a completed
        ``(task_id, result)`` when the message belongs to this run."""
        if msg[1] != gen:  # abandoned task from an aborted earlier run
            return None
        worker.task = None
        if msg[0] == "error":
            _, _, _task_id, blob, text = msg
            raise _rebuild_exc(blob, text)
        _, _, task_id, result = msg
        if backlog:
            worker.dispatch(gen, backlog.popleft())
        return task_id, result

    def _replace(
        self, worker: _Worker, backlog, gen: int, losses: Dict[int, int]
    ) -> None:
        """Respawn a crashed worker; its in-flight task goes back to
        the front of the backlog and is redispatched immediately — at
        most :data:`_RESUBMIT_LIMIT` times, after which the task is
        deemed fatal and ``RuntimeError`` names it."""
        self._workers.pop(worker.wid, None)
        worker.proc.join(timeout=0.1)
        lost = worker.task
        worker.discard()
        if lost is not None:
            task_id, kind, _payload = lost
            losses[task_id] = losses.get(task_id, 0) + 1
            if losses[task_id] > _RESUBMIT_LIMIT:
                raise RuntimeError(
                    f"pool task {task_id} (kind {kind!r}) killed its worker "
                    f"{losses[task_id]} times (last exit code "
                    f"{worker.proc.exitcode}); giving up on it"
                )
            backlog.appendleft(lost)
        replacement = self._spawn_worker()
        self.stats["respawns"] += 1
        if backlog:
            replacement.dispatch(gen, backlog.popleft())

    def run(self, kind: str, payloads: Sequence[Any]) -> List[Any]:
        """Execute payloads and return results in payload order."""
        payloads = list(payloads)
        out: List[Any] = [None] * len(payloads)
        for index, result in self.run_iter(kind, payloads):
            out[index] = result
        return out
