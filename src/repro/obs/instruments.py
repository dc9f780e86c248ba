"""Lightweight run-time instruments: counters, gauges, histograms, timers.

The experiment layer (executor, pool, result store) counts what it
does — cells, store hits, pool tasks — through a small set of
instruments owned by one :class:`Instruments` registry per call; the
default :class:`NullInstruments` hands out shared no-op singletons, so
an uninstrumented call pays a single attribute load per touch point
and nothing else.  A simulation's instruments are not recorded live:
:meth:`repro.obs.log.EventLog.snapshot` derives them from the run's
event log into an :class:`Instruments` registry.

Instruments are identified by dotted names (``fleet.dispatch``,
``gate.requests_released``); exporters (:mod:`repro.obs.exporters`)
translate those names into their own conventions.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "Instruments",
    "NullInstruments",
    "NULL_INSTRUMENTS",
    "PhaseTimer",
]

#: Log-spaced bucket bounds (seconds) for latency histograms.  Chosen
#: to straddle both sub-millisecond kernel phases and multi-minute
#: sweep cells; the implicit ``+Inf`` bucket catches the rest.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


class Counter:
    """A monotonically increasing total (events, Joules, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the running total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value that can move both ways (backlog size...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A streaming summary of observed values (count/total/min/max).

    Keeps O(1) state rather than the raw samples: per-sample series
    belong in the event log, which timestamps them.  Passing
    ``buckets`` (a sorted sequence of upper bounds) additionally keeps
    per-bucket counts, enabling Prometheus ``_bucket`` series; without
    buckets the cost stays four floats.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "bucket_counts")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        if buckets:
            self.buckets: Optional[Tuple[float, ...]] = tuple(float(b) for b in buckets)
            if list(self.buckets) != sorted(set(self.buckets)):
                raise ValueError(f"histogram {name!r} buckets must be sorted and unique")
            # One slot per bound plus the +Inf overflow; non-cumulative.
            self.bucket_counts: Optional[List[int]] = [0] * (len(self.buckets) + 1)
        else:
            self.buckets = None
            self.bucket_counts = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.buckets is not None:
            self.bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        """The JSON-friendly view used by snapshots and exporters.

        Scalar fields only, plus optional ``buckets`` (non-cumulative
        per-bucket counts) and ``bucket_bounds`` (the upper bounds)
        lists; tabular exporters skip the lists.
        """
        if not self.count:
            out: Dict[str, Any] = {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        else:
            out = {
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.mean,
            }
        if self.buckets is not None:
            out["buckets"] = list(self.bucket_counts)
            out["bucket_bounds"] = list(self.buckets)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"


class PhaseTimer(Histogram):
    """A wall-clock stopwatch histogram usable as a context manager.

    Re-entrant (nested ``with`` blocks on the same timer each record
    their own duration), so a phase that indirectly re-enters itself
    through the event engine still books correctly.
    """

    __slots__ = ("_starts",)

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(name, buckets)
        self._starts: List[float] = []

    def __enter__(self) -> "PhaseTimer":
        self._starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.observe(time.perf_counter() - self._starts.pop())


class Instruments:
    """The per-run instrument registry.

    ``counter`` / ``gauge`` / ``histogram`` / ``timer`` get-or-create by
    name, so components can look their instruments up at construction
    and share totals with dynamically named ones (``fleet.rv0.sorties``).
    A name is bound to the first instrument kind that claimed it;
    re-requesting it as a different kind raises.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, kind: type, *args: Any) -> Any:
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = kind(name, *args)
        elif type(inst) is not kind:
            raise ValueError(
                f"instrument {name!r} is a {type(inst).__name__}, not a {kind.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get-or-create; ``buckets`` only applies on first creation."""
        return self._get(name, Histogram, buckets)

    def timer(self, name: str, buckets: Optional[Sequence[float]] = None) -> PhaseTimer:
        return self._get(name, PhaseTimer, buckets)

    def names(self) -> List[str]:
        """All instrument names, in creation order."""
        return list(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A JSON-friendly dump of every instrument, grouped by kind.

        Timer durations are reported in seconds under ``timers``;
        creation order is preserved inside each group.
        """
        out: Dict[str, Dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "timers": {},
        }
        for name, inst in self._instruments.items():
            if isinstance(inst, PhaseTimer):
                s = inst.summary()
                timer_row: Dict[str, Any] = {
                    "count": s["count"],
                    "total_s": s["total"],
                    "min_s": s["min"],
                    "max_s": s["max"],
                    "mean_s": s["mean"],
                }
                if "buckets" in s:
                    timer_row["buckets"] = s["buckets"]
                    timer_row["bucket_bounds"] = s["bucket_bounds"]
                out["timers"][name] = timer_row
            elif isinstance(inst, Histogram):
                out["histograms"][name] = inst.summary()
            elif isinstance(inst, Gauge):
                out["gauges"][name] = inst.value
            else:
                out["counters"][name] = inst.value
        return out


class _NullCounter:
    __slots__ = ()
    name = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = ""
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = ""
    count = 0
    total = 0.0
    mean = 0.0
    buckets = None

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


class _NullTimer(_NullHistogram):
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_TIMER = _NullTimer()


class NullInstruments:
    """The zero-overhead fast path.

    Every accessor returns a shared no-op singleton, so instrumented
    code needs no conditionals: ``with obs.timer("executor.map"):``
    costs two empty method calls when telemetry is off.
    """

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def timer(self, name: str, buckets: Optional[Sequence[float]] = None) -> _NullTimer:
        return _NULL_TIMER

    def names(self) -> List[str]:
        return []

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "histograms": {}, "timers": {}}


#: The shared default; components fall back to it when no instruments
#: are attached (one instance is enough — it holds no state).
NULL_INSTRUMENTS = NullInstruments()
