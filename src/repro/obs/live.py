"""The live fleet telemetry plane: MetricsBus, SLOs, and HTTP endpoints.

Everything before this module was post-hoc: instruments were snapshot
at the end of a run, the sweep service answered one-shot ``stats``
RPCs, and worker health was only visible when a crash surfaced as a
respawn count.  This module adds the online layer:

* :class:`MetricsBus` — aggregates worker-side instrument deltas
  (piggybacked on the WarmPool's existing duplex pipes, one delta per
  task reply) into a parent-side registry.  Counters and histogram
  counts merge additively, which is commutative, so the totals are
  deterministic regardless of worker reply order — the same property
  span ``absorb()`` relies on.
* :class:`LiveServer` — a stdlib ``ThreadingHTTPServer`` on a daemon
  thread serving ``/metrics`` (Prometheus exposition via the same
  renderer as the file exporter), ``/healthz`` (per-worker state with
  ok/degraded/unhealthy thresholds) and ``/statusz`` (one JSON blob:
  in-flight jobs, latency histograms, store and pool totals, batch
  occupancy).
* :class:`SloRule` / :class:`SloEvaluator` — objectives such as
  ``pool.task_s:p99<=0.5`` parsed from ``REPRO_SLO`` and checked
  against the bus at request boundaries, feeding violations through
  :meth:`repro.obs.monitors.MonitorSet.check_slo` into the standard
  pipeline (``monitors.violations`` counter, span events,
  ``REPRO_STRICT_MONITORS`` fail-fast).

The zero-overhead contract holds: nothing here is constructed unless
the plane is armed (``REPRO_LIVE`` / ``repro serve --live-port``), so
the default path allocates no bus, starts no threads and opens no
sockets.

Knobs:

* ``REPRO_LIVE`` — ``1`` arms the plane on an ephemeral port; any
  other integer is used as the port; unset/``0`` leaves it off.
* ``REPRO_LIVE_INTERVAL_S`` — sampler refresh period (default 1.0 s).
* ``REPRO_SLO`` — ``;``-separated rules, e.g.
  ``pool.task_s:p99<=0.5;pool.respawns:rate<=0.1``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional

from .exporters import prometheus_lines
from .instruments import DEFAULT_LATENCY_BUCKETS, Histogram, Instruments, PhaseTimer

__all__ = [
    "MetricsBus",
    "LiveServer",
    "SloRule",
    "SloEvaluator",
    "parse_slo_rules",
    "live_port_from_env",
    "live_interval_from_env",
    "set_worker_instruments",
    "worker_instruments",
]


# -- worker-side instrument hook --------------------------------------
#
# A warm-pool worker that streams stats owns one Instruments registry
# for its whole life.  Task functions that want to book into it (the
# batch runner recording occupancy) cannot be handed it through the
# payload — payloads are user data — so the worker parks it in this
# module-level slot and task code asks for it.  In the parent process
# the slot stays None and callers fall back to their usual defaults.

_WORKER_INSTRUMENTS: Optional[Instruments] = None


def set_worker_instruments(instruments: Optional[Instruments]) -> None:
    """Install (or clear) the current process's worker registry."""
    global _WORKER_INSTRUMENTS
    _WORKER_INSTRUMENTS = instruments


def worker_instruments() -> Optional[Instruments]:
    """The worker registry, or None outside a streaming worker."""
    return _WORKER_INSTRUMENTS


# -- knobs ------------------------------------------------------------


def live_port_from_env() -> Optional[int]:
    """The port ``REPRO_LIVE`` asks for: None off, 0 ephemeral.

    ``REPRO_LIVE=1`` means "armed, pick a free port" (1 is a reserved
    port nobody can bind anyway); any other positive integer is the
    port itself; ``0``/empty/unset leaves the plane off.
    """
    raw = os.environ.get("REPRO_LIVE", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_LIVE must be an integer, got {raw!r}")
    if value <= 0:
        return None
    return 0 if value == 1 else value


def live_interval_from_env() -> float:
    """Sampler refresh period from ``REPRO_LIVE_INTERVAL_S`` (>= 0.05 s)."""
    raw = os.environ.get("REPRO_LIVE_INTERVAL_S", "").strip()
    if not raw:
        return 1.0
    return max(0.05, float(raw))


# -- metrics bus ------------------------------------------------------


class MetricsBus:
    """Parent-side aggregation point for worker instrument deltas.

    Workers snapshot-and-reset their local registry after each task
    and attach the delta to the reply tuple; the pool calls
    :meth:`absorb` as replies drain.  Counters and histogram/timer
    summaries fold additively into one parent :class:`Instruments`
    (order-independent); gauges are point-in-time per worker, so they
    are kept on per-worker rows instead of being summed into
    nonsense.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.instruments = Instruments()
        #: wid -> {"deltas": int, "counters": {...}, "gauges": {...}}
        self._per_worker: Dict[int, Dict[str, Any]] = {}

    def absorb(self, delta: Optional[Dict[str, Any]], worker: int) -> None:
        """Fold one worker snapshot delta into the aggregate."""
        if not delta:
            return
        with self._lock:
            row = self._per_worker.setdefault(
                worker, {"deltas": 0, "counters": {}, "gauges": {}}
            )
            row["deltas"] += 1
            for name, value in delta.get("counters", {}).items():
                self.instruments.counter(name).inc(value)
                row["counters"][name] = row["counters"].get(name, 0.0) + value
            for name, value in delta.get("gauges", {}).items():
                row["gauges"][name] = value
            for name, summary in delta.get("histograms", {}).items():
                buckets = summary.get("bucket_bounds") or (
                    DEFAULT_LATENCY_BUCKETS if "buckets" in summary else None
                )
                self.instruments.histogram(name, buckets).merge(summary)
            for name, summary in delta.get("timers", {}).items():
                buckets = summary.get("bucket_bounds") or (
                    DEFAULT_LATENCY_BUCKETS if "buckets" in summary else None
                )
                remapped = {
                    "count": summary.get("count", 0),
                    "total": summary.get("total_s", 0.0),
                    "min": summary.get("min_s", 0.0),
                    "max": summary.get("max_s", 0.0),
                }
                if "buckets" in summary:
                    remapped["buckets"] = summary["buckets"]
                self.instruments.timer(name, buckets).merge(remapped)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return self.instruments.snapshot()

    def worker_rows(self) -> Dict[int, Dict[str, Any]]:
        """Per-worker cumulative totals (JSON-friendly copy)."""
        with self._lock:
            return {
                wid: {
                    "deltas": row["deltas"],
                    "counters": dict(row["counters"]),
                    "gauges": dict(row["gauges"]),
                }
                for wid, row in self._per_worker.items()
            }

    def bucket_bounds(self) -> Dict[str, List[float]]:
        """Instrument name -> bucket upper bounds, for exposition."""
        with self._lock:
            out: Dict[str, List[float]] = {}
            for name in self.instruments.names():
                inst = self.instruments._instruments[name]
                if isinstance(inst, (Histogram, PhaseTimer)) and inst.buckets:
                    out[name] = list(inst.buckets)
            return out


# -- SLO rules --------------------------------------------------------


@dataclass(frozen=True)
class SloRule:
    """One parsed objective: ``<instrument>:<stat><=<threshold>``.

    Stats: ``p50``/``p90``/``p99`` (bucketed histogram quantiles),
    ``mean``, ``max``, ``count``, ``total``, ``value`` (counter or
    gauge reading), ``rate`` (counter value divided by elapsed
    seconds since the evaluator armed).
    """

    instrument: str
    stat: str
    threshold: float

    @property
    def name(self) -> str:
        return f"{self.instrument}:{self.stat}<={self.threshold:g}"


def parse_slo_rules(spec: str) -> List[SloRule]:
    """Parse a ``REPRO_SLO`` spec: ``;``-separated rule strings."""
    rules: List[SloRule] = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        head, sep, raw_threshold = part.partition("<=")
        if not sep:
            raise ValueError(f"SLO rule {part!r} must contain '<='")
        instrument, sep, stat = head.partition(":")
        if not sep or not instrument or not stat:
            raise ValueError(f"SLO rule {part!r} must look like 'name:stat<=value'")
        stat = stat.strip().lower()
        if stat not in ("p50", "p90", "p99", "mean", "max", "count", "total", "value", "rate"):
            raise ValueError(f"SLO rule {part!r}: unknown stat {stat!r}")
        rules.append(SloRule(instrument.strip(), stat, float(raw_threshold)))
    return rules


class SloEvaluator:
    """Checks SLO rules against a bus and reports through monitors.

    Evaluation happens at request boundaries in the service's accept
    thread — never inside the HTTP handler threads — so a strict
    violation raises where the service can actually fail fast rather
    than silently killing a scrape thread.
    """

    _QUANTILES = {"p50": 0.50, "p90": 0.90, "p99": 0.99}

    def __init__(self, rules: List[SloRule], monitors: Any) -> None:
        self.rules = rules
        self.monitors = monitors
        self._armed_at = time.monotonic()
        self.last_results: List[Dict[str, Any]] = []

    def _observe(self, rule: SloRule, instruments: Instruments) -> Optional[float]:
        inst = instruments._instruments.get(rule.instrument)
        if inst is None:
            return None
        if rule.stat in self._QUANTILES:
            if getattr(inst, "buckets", None) is None:
                return None
            return inst.quantile(self._QUANTILES[rule.stat])
        if rule.stat == "rate":
            elapsed = max(1e-9, time.monotonic() - self._armed_at)
            return getattr(inst, "value", getattr(inst, "count", 0.0)) / elapsed
        if rule.stat == "value":
            return getattr(inst, "value", None)
        if rule.stat in ("mean", "max", "count", "total"):
            return getattr(inst, rule.stat, None)
        return None

    def evaluate(self, bus: MetricsBus, t: float = 0.0) -> List[Dict[str, Any]]:
        """Check every rule; returns per-rule results (also cached)."""
        results: List[Dict[str, Any]] = []
        with bus._lock:
            for rule in self.rules:
                observed = self._observe(rule, bus.instruments)
                row = {
                    "rule": rule.name,
                    "observed": observed,
                    "threshold": rule.threshold,
                }
                if observed is None:
                    row["ok"] = True  # nothing recorded yet
                    results.append(row)
                    continue
                row["observed"] = float(observed)
                results.append(row)
        # Monitor calls outside the bus lock: strict mode raises.
        for row in results:
            if "ok" not in row:
                row["ok"] = self.monitors.check_slo(
                    row["rule"], row["observed"], row["threshold"], t
                )
        self.last_results = results
        return results


# -- HTTP endpoints ---------------------------------------------------


class _LiveHandler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz, /statusz to the server's callables."""

    server_version = "repro-live/1"

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # stay quiet; the service owns stdout

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        live: "LiveServer" = self.server.live  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = live.render_metrics().encode("utf-8")
                self._send(200, "text/plain; version=0.0.4; charset=utf-8", body)
            elif path == "/healthz":
                payload = live.health_fn()
                status = 503 if payload.get("status") == "unhealthy" else 200
                self._send(
                    status,
                    "application/json",
                    json.dumps(payload, sort_keys=True).encode("utf-8"),
                )
            elif path == "/statusz":
                payload = live.status_fn()
                self._send(
                    200,
                    "application/json",
                    json.dumps(payload, sort_keys=True).encode("utf-8"),
                )
            else:
                self._send(404, "text/plain", b"not found: try /metrics /healthz /statusz\n")
        except BrokenPipeError:  # client went away mid-write
            pass
        except Exception as exc:  # defensive: a scrape must not kill the server
            try:
                self._send(500, "text/plain", f"error: {exc!r}\n".encode("utf-8"))
            except Exception:
                pass


class LiveServer:
    """The embedded HTTP plane: /metrics, /healthz, /statusz.

    Binds 127.0.0.1 only (this is an operator plane, not a public
    API); ``port=0`` picks a free ephemeral port, exposed as
    ``self.port``.  A background sampler thread refreshes gauges via
    ``sample_fn`` every ``interval_s`` so scrapes see fresh
    point-in-time values without blocking the service loop.  All
    threads are daemons and ``close()`` is idempotent.
    """

    def __init__(
        self,
        bus: MetricsBus,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
        status_fn: Optional[Callable[[], Dict[str, Any]]] = None,
        health_fn: Optional[Callable[[], Dict[str, Any]]] = None,
        sample_fn: Optional[Callable[[], None]] = None,
        interval_s: float = 1.0,
        extra_summary_fn: Optional[Callable[[], Dict[str, float]]] = None,
    ) -> None:
        self.bus = bus
        self.status_fn = status_fn or (lambda: {})
        self.health_fn = health_fn or (lambda: {"status": "idle"})
        self.extra_summary_fn = extra_summary_fn
        self._httpd = ThreadingHTTPServer((host, port), _LiveHandler)
        self._httpd.daemon_threads = True
        self._httpd.live = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.25},
            name="repro-live-http",
            daemon=True,
        )
        self._serve_thread.start()
        self._stop = threading.Event()
        self._sampler: Optional[threading.Thread] = None
        if sample_fn is not None:
            def _loop() -> None:
                while not self._stop.wait(interval_s):
                    try:
                        sample_fn()
                    except Exception:
                        pass  # sampling must never take the plane down
            self._sampler = threading.Thread(
                target=_loop, name="repro-live-sampler", daemon=True
            )
            self._sampler.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def render_metrics(self) -> str:
        """The current bus state as Prometheus exposition text."""
        snapshot = self.bus.snapshot()
        summary = self.extra_summary_fn() if self.extra_summary_fn else None
        lines = prometheus_lines(snapshot, summary, self.bus.bucket_bounds())
        return "\n".join(lines) + "\n"

    def close(self) -> None:
        self._stop.set()
        try:
            self._httpd.shutdown()
        except Exception:
            pass
        self._httpd.server_close()
        if self._sampler is not None:
            self._sampler.join(timeout=2.0)
        self._serve_thread.join(timeout=2.0)

    def __enter__(self) -> "LiveServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
