"""Local sweep service: many clients, one warm compute pool.

``repro serve`` turns the cell executor into a long-lived process that
listens on a unix domain socket; ``repro submit`` (or
:class:`SweepClient`) connects, submits a sweep grid, and streams
per-cell results back as they finish.  The value is amortization and
sharing: the service keeps one :class:`repro.experiments.pool.WarmPool`
and one :class:`repro.experiments.store.ResultStore` alive across
submissions, so every client benefits from every other client's
completed cells and nobody pays pool start-up twice.

Wire protocol — newline-delimited JSON (JSONL), one request object per
line, answered by one or more response lines:

* ``{"op": "ping"}`` → ``{"ok": true, "version": ..., "pid": ...,
  "jobs": ...}``
* ``{"op": "stats"}`` → pool/store/instrument totals
* ``{"op": "submit_grid", "days": D, "seeds": [...], "schedulers":
  [...], "erps": [...], "overrides": {...}}`` → a stream of
  ``{"cell": i, "key": [scheduler, erp, seed], "source":
  "store"|"run"|"batch", "summary": {...}}`` lines in completion
  order, terminated by ``{"done": true, "cells": N, "sources": {...}}``
* ``{"op": "submit", "configs": [<config dict>, ...]}`` — same stream
  for explicit configuration dicts (:mod:`repro.sim.serialization`)
* ``{"op": "shutdown"}`` → ``{"ok": true}``, then the server exits its
  accept loop
* any failure → ``{"error": "..."}``

Determinism: the stream arrives in completion order, but every cell
carries its grid index, and the client reassembles
``results()`` in canonical grid order — so a served sweep is
byte-identical to the serial executor (floats survive the JSON hop
exactly: ``repr`` round-trips float64).  Summary payloads are small;
the zero-copy shipping happens on the service's *pool* boundary, not
on the client socket.

Connections are handled sequentially (one grid at a time keeps the
pool undivided); between connections the service reaps an idle pool.
This is a local, trusted-user endpoint — filesystem permissions on the
socket path are the access control.
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..obs.instruments import DEFAULT_LATENCY_BUCKETS, Instruments
from ..sim.metrics import SimulationSummary
from ..sim.serialization import config_from_dict, config_to_dict
from .cache import summary_from_dict
from .common import ExperimentScale
from .executor import CellKey, CellResult, default_jobs, grid_configs, iter_configs
from .store import ResultStore

__all__ = ["RemoteGrid", "ServiceError", "SweepClient", "SweepService"]

#: Bump when the wire format changes incompatibly.
PROTOCOL_VERSION = 1


class ServiceError(RuntimeError):
    """An error reported by the sweep service (or a protocol breach)."""


def _send(wfile, payload: Dict[str, Any]) -> None:
    wfile.write(json.dumps(payload) + "\n")
    wfile.flush()


class SweepService:
    """The serving side of ``repro serve`` (see module docs).

    ``store_dir`` materializes a :class:`ResultStore` under that path;
    without it the ``REPRO_STORE`` environment opt-in applies (and with
    neither, the service still amortizes the warm pool).  With
    ``postmortem_dir``, each submission's misses run with the flight
    recorder armed and crashing cells flush
    ``<postmortem_dir>/request-<n>/cell-<grid index>`` bundles.

    Live telemetry plane (``repro.obs.live``): pass ``live_port``
    (``0`` = ephemeral) — or set ``REPRO_LIVE`` — and the service
    embeds an HTTP listener on 127.0.0.1 exposing ``/metrics``
    (Prometheus exposition), ``/healthz`` (per-worker state with
    ok/degraded/unhealthy thresholds) and ``/statusz`` (one JSON blob:
    in-flight job, latency histograms, pool/store totals, per-worker
    rows, batch occupancy).  The service's instrument registry then
    *is* the plane's :class:`~repro.obs.live.MetricsBus`, the warm
    pool streams worker stat deltas into it, and ``REPRO_SLO`` rules
    (or ``slo=``) are evaluated at request boundaries through
    :meth:`~repro.obs.monitors.MonitorSet.check_slo` — violations
    count, span, and fail fast under ``REPRO_STRICT_MONITORS``.  With
    the plane off (the default) none of this exists: no bus, no
    threads, no sockets.
    """

    def __init__(
        self,
        socket_path,
        jobs: Optional[int] = None,
        warm: bool = True,
        store: Optional[ResultStore] = None,
        store_dir=None,
        idle_timeout_s: Optional[float] = None,
        postmortem_dir=None,
        instruments: Optional[Instruments] = None,
        live_port: Optional[int] = None,
        live_interval_s: Optional[float] = None,
        slo: Optional[str] = None,
    ) -> None:
        self.socket_path = str(socket_path)
        self.jobs = default_jobs() if jobs is None else int(jobs)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.warm = bool(warm)
        self.idle_timeout_s = idle_timeout_s
        self.postmortem_dir = None if postmortem_dir is None else Path(postmortem_dir)

        # Only touch repro.obs.live (and its http.server import) when
        # the plane could actually be armed — the null default imports
        # nothing and allocates nothing.
        if live_port is None and os.environ.get("REPRO_LIVE", "").strip():
            from ..obs.live import live_port_from_env

            live_port = live_port_from_env()
        self.bus = None
        self.live = None
        self._slo_evaluator = None
        if live_port is not None:
            from ..obs.live import MetricsBus

            self.bus = MetricsBus()
            # One registry for everything: executor/pool/store counters
            # recorded by the accept thread and worker deltas absorbed
            # by the bus land in the same place the scraper reads.
            self.instruments = self.bus.instruments
        else:
            self.instruments = Instruments() if instruments is None else instruments
        if store is not None:
            self.store: Optional[ResultStore] = store
        elif store_dir is not None:
            self.store = ResultStore(store_dir, instruments=self.instruments)
        else:
            self.store = ResultStore.from_env(instruments=self.instruments)
        self.requests_served = 0
        self._stop = False
        #: Progress of the request being served right now (/statusz).
        self._current: Optional[Dict[str, Any]] = None

        if self.bus is not None:
            from ..obs.live import (
                LiveServer,
                SloEvaluator,
                live_interval_from_env,
                parse_slo_rules,
            )

            slo_spec = os.environ.get("REPRO_SLO", "") if slo is None else slo
            rules = parse_slo_rules(slo_spec)
            if rules:
                from ..obs.monitors import MonitorSet
                from ..obs.spans import SpanTracer

                monitors = MonitorSet(instruments=self.instruments, spans=SpanTracer())
                self._slo_evaluator = SloEvaluator(rules, monitors)
            if live_interval_s is None:
                live_interval_s = live_interval_from_env()
            self.live = LiveServer(
                self.bus,
                port=live_port,
                status_fn=self._statusz,
                health_fn=self._healthz,
                sample_fn=self._sample,
                interval_s=live_interval_s,
            )
            if self.warm:
                # Arm worker stat streaming before any worker spawns so
                # every worker's replies carry instrument deltas.
                from .pool import get_warm_pool

                get_warm_pool(self.jobs).attach_bus(self.bus)

    # -- lifecycle ----------------------------------------------------

    def serve_forever(self, max_requests: Optional[int] = None) -> int:
        """Accept and serve connections until a ``shutdown`` request
        arrives (or ``max_requests`` connections were handled); returns
        the number of requests served."""
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            if os.path.exists(self.socket_path):  # stale socket from a dead server
                os.unlink(self.socket_path)
            server.bind(self.socket_path)
            server.listen(8)
            server.settimeout(0.5)
            while not self._stop and (
                max_requests is None or self.requests_served < max_requests
            ):
                try:
                    conn, _addr = server.accept()
                except socket.timeout:
                    self._maybe_reap()
                    continue
                with conn:
                    self._handle(conn)
                self.requests_served += 1
                # SLOs are checked here — in the accept thread, at a
                # request boundary — so a strict violation raises where
                # the service can fail fast, never inside a scrape.
                if self._slo_evaluator is not None:
                    self._slo_evaluator.evaluate(self.bus)
        finally:
            server.close()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            self.close_live()
        return self.requests_served

    def close_live(self) -> None:
        """Tear the live HTTP plane down (idempotent; no-op when off)."""
        if self.live is not None:
            self.live.close()
            self.live = None

    def _maybe_reap(self) -> None:
        """Let an idle warm pool release its workers between clients."""
        if self.idle_timeout_s is None:
            return
        from .pool import _default_pool

        if _default_pool is not None:
            _default_pool.idle_timeout_s = self.idle_timeout_s
            _default_pool.reap_if_idle()

    # -- request handling ---------------------------------------------

    def _handle(self, conn: socket.socket) -> None:
        """Serve exactly one request on this connection.

        One-request-per-connection keeps the protocol stateless: the
        server never blocks waiting for a second request a client will
        not send, and clients know EOF always follows the response.
        """
        rfile = conn.makefile("r", encoding="utf-8")
        wfile = conn.makefile("w", encoding="utf-8")
        try:
            line = rfile.readline().strip()
            if not line:
                return
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                _send(wfile, {"error": f"bad request line: {exc}"})
                return
            self._dispatch(request, wfile)
        except BrokenPipeError:  # client went away mid-stream; nothing to do
            pass
        finally:
            try:
                wfile.close()
                rfile.close()
            except OSError:
                pass

    def _dispatch(self, request: Dict[str, Any], wfile) -> None:
        """Answer one request (errors are reported, never fatal)."""
        op = request.get("op")
        try:
            if op == "ping":
                from .. import __version__

                _send(wfile, {
                    "ok": True, "op": "ping", "protocol": PROTOCOL_VERSION,
                    "version": __version__, "pid": os.getpid(), "jobs": self.jobs,
                })
            elif op == "stats":
                _send(wfile, {"ok": True, "op": "stats", **self.describe()})
            elif op == "shutdown":
                _send(wfile, {"ok": True, "op": "shutdown"})
                self._stop = True
            elif op in ("submit", "submit_grid"):
                self._submit(request, wfile)
            else:
                _send(wfile, {"error": f"unknown op {op!r}"})
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # report, keep serving other clients
            try:
                _send(wfile, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                pass

    def describe(self) -> Dict[str, Any]:
        """Pool/store/instrument totals for the ``stats`` op."""
        from .pool import _default_pool

        out: Dict[str, Any] = {
            "jobs": self.jobs,
            "warm": self.warm,
            "requests_served": self.requests_served,
            "counters": self.instruments.snapshot()["counters"],
        }
        if _default_pool is not None and not _default_pool._closed:
            out["pool"] = {
                "workers_alive": _default_pool.workers_alive,
                **_default_pool.stats,
            }
        if self.store is not None:
            out["store"] = self.store.describe()
        return out

    # -- live plane sources -------------------------------------------

    def _healthz(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: pool liveness with thresholds.

        ``idle`` — no pool yet (or reaped); ``ok`` — every slot live;
        ``degraded`` — some but not all slots live; ``unhealthy`` —
        workers expected but none alive (served with HTTP 503).
        Status is a pure function of *current* liveness, so a respawn
        flips degraded back to ok on the next scrape.
        """
        from .pool import _default_pool

        pool = _default_pool
        out: Dict[str, Any] = {
            "jobs": self.jobs,
            "requests_served": self.requests_served,
            "inflight": self._current is not None,
        }
        if pool is None or pool._closed or not pool._workers:
            out["status"] = "idle"
            return out
        health = pool.health()
        alive = health["workers_alive"]
        if alive == 0:
            out["status"] = "unhealthy"
        elif alive < pool.jobs:
            out["status"] = "degraded"
        else:
            out["status"] = "ok"
        out.update(health)
        return out

    def _statusz(self) -> Dict[str, Any]:
        """The ``/statusz`` payload: one JSON blob of live state."""
        snapshot = self.bus.snapshot() if self.bus is not None else {}
        current = self._current
        if current is not None:
            # Shallow-copy down to the sources tally: the accept thread
            # mutates it while scrape threads serialize the copy.
            current = {**current, "sources": dict(current["sources"])}
        out: Dict[str, Any] = {
            "service": self.describe(),
            "current": current,
            "histograms": snapshot.get("histograms", {}),
            "gauges": snapshot.get("gauges", {}),
            "health": self._healthz(),
        }
        if self.bus is not None:
            out["workers"] = {
                str(wid): row for wid, row in self.bus.worker_rows().items()
            }
        if self._slo_evaluator is not None:
            out["slo"] = self._slo_evaluator.last_results
        return out

    def _sample(self) -> None:
        """Periodic gauge refresh (runs on the live sampler thread)."""
        from .pool import _default_pool

        obs = self.instruments
        pool = _default_pool
        obs.gauge("service.workers_alive").set(
            pool.workers_alive if pool is not None and not pool._closed else 0
        )
        obs.gauge("service.requests_served").set(self.requests_served)
        if self.store is not None:
            try:
                obs.gauge("store.entries").set(len(self.store))
                obs.gauge("store.bytes").set(self.store.total_bytes())
            except OSError:  # pragma: no cover - store dir racing eviction
                pass

    def _submit(self, request: Dict[str, Any], wfile) -> None:
        keys: Optional[List[CellKey]] = None
        if request["op"] == "submit_grid":
            scale = ExperimentScale(
                "client",
                days=float(request.get("days", 1.0)),
                seeds=tuple(int(s) for s in request["seeds"]),
            )
            keys, configs = grid_configs(
                scale,
                [str(s) for s in request["schedulers"]],
                [float(e) for e in request["erps"]],
                **(request.get("overrides") or {}),
            )
        else:
            configs = [config_from_dict(d) for d in request["configs"]]
        postmortem = None
        if self.postmortem_dir is not None:
            postmortem = self.postmortem_dir / f"request-{self.requests_served:03d}"
        sources: Dict[str, int] = {}
        obs = self.instruments
        obs.counter("service.requests").inc()
        obs.gauge("service.inflight").set(1)
        self._current = {
            "op": request["op"], "cells": len(configs), "completed": 0,
            "sources": sources,
        }
        try:
            with obs.timer("service.request_s", DEFAULT_LATENCY_BUCKETS):
                for index, summary, source in iter_configs(
                    configs,
                    jobs=self.jobs,
                    warm=self.warm,
                    store=self.store,
                    instruments=obs,
                    postmortem_dir=postmortem,
                ):
                    sources[source] = sources.get(source, 0) + 1
                    self._current["completed"] += 1
                    row: Dict[str, Any] = {
                        "cell": index, "source": source, "summary": summary.as_dict(),
                    }
                    if keys is not None:
                        row["key"] = list(keys[index])
                    _send(wfile, row)
            _send(wfile, {"done": True, "cells": len(configs), "sources": sources})
        finally:
            self._current = None
            obs.gauge("service.inflight").set(0)


class RemoteGrid:
    """Client-side streaming handle over a served grid submission.

    Mirrors :class:`repro.experiments.executor.GridJob`: iterate for
    :class:`CellResult` items as the service finishes them, or call
    :meth:`results` for the grid-order reassembly.  ``sources`` and
    ``done`` carry the terminal tallies once the stream is consumed.
    """

    def __init__(self, keys: Sequence[CellKey], lines: Iterator[Dict[str, Any]]):
        self.keys: List[CellKey] = list(keys)
        self.sources: Dict[str, int] = {}
        self.done: Optional[Dict[str, Any]] = None
        self._lines = lines
        self._cells: Dict[int, CellResult] = {}

    def _close_lines(self) -> None:
        close = getattr(self._lines, "close", None)
        if close is not None:
            close()

    def __iter__(self) -> Iterator[CellResult]:
        for row in self._lines:
            if "error" in row:
                self._close_lines()
                raise ServiceError(row["error"])
            if row.get("done"):
                self.done = row
                self._close_lines()  # release the connection promptly
                return
            index = int(row["cell"])
            cell = CellResult(
                index, self.keys[index],
                summary_from_dict(row["summary"]), row["source"],
            )
            self._cells[index] = cell
            self.sources[cell.source] = self.sources.get(cell.source, 0) + 1
            yield cell

    def results(self) -> Dict[CellKey, SimulationSummary]:
        """All summaries keyed by cell, reassembled in grid order."""
        for _ in self:
            pass
        missing = [i for i in range(len(self.keys)) if i not in self._cells]
        if missing:
            raise ServiceError(f"service stream ended with cells missing: {missing}")
        return {self.keys[i]: self._cells[i].summary for i in range(len(self.keys))}


class SweepClient:
    """The submitting side of ``repro submit`` (see module docs)."""

    def __init__(self, socket_path, timeout_s: Optional[float] = None) -> None:
        self.socket_path = str(socket_path)
        self.timeout_s = timeout_s

    def _request_lines(self, payload: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """One request, streamed responses (connection per request)."""
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout_s is not None:
            conn.settimeout(self.timeout_s)
        try:
            conn.connect(self.socket_path)
            wfile = conn.makefile("w", encoding="utf-8")
            _send(wfile, payload)
            rfile = conn.makefile("r", encoding="utf-8")
            for line in rfile:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def _request_one(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        for row in self._request_lines(payload):
            if "error" in row:
                raise ServiceError(row["error"])
            return row
        raise ServiceError("service closed the connection without answering")

    def ping(self) -> Dict[str, Any]:
        """Round-trip a ping; raises on protocol mismatch."""
        answer = self._request_one({"op": "ping"})
        if answer.get("protocol") != PROTOCOL_VERSION:
            raise ServiceError(
                f"protocol mismatch: server speaks {answer.get('protocol')}, "
                f"client speaks {PROTOCOL_VERSION}"
            )
        return answer

    def stats(self) -> Dict[str, Any]:
        """The service's pool/store/instrument totals."""
        return self._request_one({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the service to exit its accept loop."""
        return self._request_one({"op": "shutdown"})

    def submit_grid(
        self,
        scale: ExperimentScale,
        schedulers: Sequence[str],
        erps: Sequence[float],
        **overrides,
    ) -> RemoteGrid:
        """Submit a sweep grid; returns the streaming
        :class:`RemoteGrid` handle (results are bit-identical to a
        local :func:`repro.experiments.executor.map_cells`)."""
        keys, _configs = grid_configs(scale, schedulers, erps, **overrides)
        lines = self._request_lines({
            "op": "submit_grid",
            "days": scale.days,
            "seeds": list(scale.seeds),
            "schedulers": list(schedulers),
            "erps": [float(e) for e in erps],
            "overrides": overrides,
        })
        return RemoteGrid(keys, lines)

    def submit_configs(self, configs) -> RemoteGrid:
        """Submit explicit configurations; keys degrade to
        ``(scheduler, erp, seed)`` extracted per config."""
        keys = [(c.scheduler, float(c.erp), int(c.seed)) for c in configs]
        lines = self._request_lines({
            "op": "submit",
            "configs": [config_to_dict(c) for c in configs],
        })
        return RemoteGrid(keys, lines)
