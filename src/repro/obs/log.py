"""One event log per run: phases, semantic events and series samples.

The simulation reports what it does through one :class:`EventLog`
handle (``World(config, log=EventLog())``), with three calls:

* ``log.phase(name, **attrs)`` — a ``with`` block around one timed
  phase (``energy.recompute``, ``scheduler.assign``, a ``tick``...).
  Phases nest into the span tree that ``spans.jsonl`` stores;
* ``log.emit(t, kind, subject, value, **attrs)`` — one semantic event
  (a request release, an RV arrival, a recharge, a depletion...).
  Keyword attributes also attach the event to the innermost open
  phase as a span event (``sortie.assigned`` carries the plan's
  profit, travel and clusters this way);
* ``log.sample(t, name, value)`` — one point of a named time series
  (``coverage``, ``backlog``...).

Everything a telemetry run writes is derived from that one record at
export time: ``events.jsonl`` and ``series.csv`` are the events and
samples, ``spans.jsonl`` the phases, and :meth:`EventLog.snapshot`
builds the run's counters, gauge, histograms and phase timers as one
plain dict from the events and phase durations (the derivation table
is :data:`EVENT_COUNTERS`, :data:`TIMED_PHASES` and the body of
:meth:`~EventLog.snapshot`).  Nothing is counted twice, and no number
in the snapshot can disagree with the event stream.

:data:`NULL_LOG` is the shared disabled log: every call returns at
once, so an unobserved run pays one method call per touch point.
``mark(name, **attrs)`` records a point event that is not a simulation
event (an invariant violation, a result-store hit) on the open phase.

The module never imports :mod:`repro.sim`; :class:`EventKind` lives
here so the simulation can import it.  So do :data:`NULL_MONITORS` and
:data:`NULL_BLACKBOX`, the disabled stand-ins for a
:class:`~repro.obs.monitors.MonitorSet` and a
:class:`~repro.obs.blackbox.BlackBoxRecorder`: the simulation core
imports nothing else from :mod:`repro.obs`, and an unobserved run never
loads the recorder stack.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .spans import Span, json_safe, spans_to_jsonl_lines

__all__ = [
    "EVENT_COUNTERS",
    "EventKind",
    "EventLog",
    "NULL_BLACKBOX",
    "NULL_LOG",
    "NULL_MONITORS",
    "NullBlackBox",
    "NullMonitors",
    "TIMED_PHASES",
    "TraceEvent",
]


class EventKind(Enum):
    """The semantic event types a simulation emits."""

    REQUEST_RELEASED = "request_released"
    SORTIE_ASSIGNED = "sortie_assigned"
    RV_ARRIVED = "rv_arrived"
    NODE_RECHARGED = "node_recharged"
    RV_RETURNED_HOME = "rv_returned_home"
    SENSOR_DEPLETED = "sensor_depleted"
    SENSOR_REVIVED = "sensor_revived"
    TARGETS_RELOCATED = "targets_relocated"
    ROTATION = "rotation"


class TraceEvent(NamedTuple):
    """One semantic event: exactly one line of ``events.jsonl``.

    ``subject`` is the primary entity (sensor id, RV id, epoch...), -1
    if not applicable; ``value`` a free numeric payload (energy
    delivered, stop count, node visited...).
    """

    time_s: float
    kind: EventKind
    subject: int = -1
    value: float = 0.0


#: Phase name -> the phase timer it derives.  The other phases
#: (``tick``, ``dispatch_round``, ``relocate``) are spans only.
TIMED_PHASES: Dict[str, str] = {
    "clusters.rebuild": "clusters.rebuild",
    "gate.check": "gate.check",
    "energy.recompute": "energy.recompute",
    "energy.advance": "energy.advance",
    "fleet.dispatch": "fleet.dispatch",
    "scheduler.assign": "scheduler.assign",
    "run": "world.run",
}

#: Counter name -> (source, rule).  The source is an event kind or a
#: phase name; the rule counts the records or sums the event values.
EVENT_COUNTERS: Dict[str, Tuple[Union[EventKind, str], str]] = {
    "clusters.relocations": (EventKind.TARGETS_RELOCATED, "count"),
    "clusters.handoffs": (EventKind.ROTATION, "sum"),
    "gate.requests_released": (EventKind.REQUEST_RELEASED, "count"),
    "gate.recharges": (EventKind.NODE_RECHARGED, "count"),
    "energy.depletions": (EventKind.SENSOR_DEPLETED, "count"),
    "fleet.dispatch_rounds": ("fleet.dispatch", "count"),
    "fleet.sorties": (EventKind.SORTIE_ASSIGNED, "count"),
    "fleet.legs": (EventKind.RV_ARRIVED, "count"),
    "fleet.depot_returns": (EventKind.RV_RETURNED_HOME, "count"),
}

#: The name monitors mark invariant violations with.
VIOLATION = "invariant.violation"


#: Field names of a histogram row and of a timer row (seconds).
_HISTOGRAM_FIELDS = ("count", "total", "min", "max", "mean")
_TIMER_FIELDS = ("count", "total_s", "min_s", "max_s", "mean_s")


def _inc(counters: Dict[str, float], name: str, amount: float) -> None:
    """Add ``amount`` (must be >= 0) to the named counter."""
    if amount < 0:
        raise ValueError(f"counter {name!r} cannot decrease (got {amount})")
    counters[name] = counters.get(name, 0.0) + amount


def _summary(values: List[float]) -> Tuple[int, float, float, float, float]:
    """``(count, total, min, max, mean)`` of ``values``, all zero when
    empty; the total accumulates with ``+=`` in record order."""
    if not values:
        return 0, 0.0, 0.0, 0.0, 0.0
    values = [float(v) for v in values]
    total = 0.0
    for v in values:
        total += v
    return len(values), total, min(values), max(values), total / len(values)


class _NullPhase:
    """The shared do-nothing phase (and its own context manager)."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def set(self, **attrs: Any) -> "_NullPhase":
        return self


_NULL_PHASE = _NullPhase()


class EventLog:
    """The run's one observation record (see the module docstring).

    Attributes:
        events: the semantic events, in emit order.
        series: named ``(t, value)`` samples, in sample order.
        spans: every phase (and absorbed span) in open order, with ids
            1, 2, ... — a deterministic layout given a deterministic
            call sequence, which the ``--jobs N`` merge relies on.
        marks: every point event, whether or not a phase was open.
        enabled: False only for :data:`NULL_LOG`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self.series: Dict[str, List[Tuple[float, float]]] = {}
        self.spans: List[Span] = []
        self.marks: List[Dict[str, Any]] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- recording ------------------------------------------------------

    def phase(self, name: str, **attrs: Any):
        """Open a timed phase under the innermost open one; use as a
        ``with`` block, which yields the :class:`Span`."""
        if not self.enabled:
            return _NULL_PHASE
        stack = self._stack
        span = Span(
            self._next_id, stack[-1].span_id if stack else None, name, stack=stack
        )
        if attrs:
            span.set(**attrs)
        self._next_id += 1
        self.spans.append(span)
        stack.append(span)
        return span

    def emit(
        self,
        time_s: float,
        kind: EventKind,
        subject: int = -1,
        value: float = 0.0,
        **attrs: Any,
    ) -> None:
        """Record one semantic event.  Keyword ``attrs`` also mark it
        on the open phase, named after the kind with its first
        underscore as a dot (``sortie_assigned`` -> ``sortie.assigned``)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(time_s, kind, subject, value))
        if attrs:
            self.mark(kind.value.replace("_", ".", 1), **attrs)

    def sample(self, time_s: float, name: str, value: float) -> None:
        """Append one ``(t, value)`` sample to the named series."""
        if self.enabled:
            self.series.setdefault(name, []).append((time_s, float(value)))

    def mark(self, name: str, **attrs: Any) -> None:
        """Record a point event on the innermost open phase."""
        if not self.enabled:
            return
        record: Dict[str, Any] = {"name": name, "t": perf_counter()}
        for key, value in attrs.items():
            record[key] = json_safe(value)
        self.marks.append(record)
        if self._stack:
            self._stack[-1].events.append(record)

    def absorb(
        self,
        rows: Iterable[Dict[str, Any]],
        parent: Optional[Span] = None,
        root_attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Splice serialized spans from another log under ``parent``.

        Ids are renumbered in row order (each row takes this log's next
        id), internal parent links are remapped, and rows that were
        roots become children of ``parent`` (or stay roots) with
        ``root_attrs`` merged in.  The executor merges pool workers'
        cell spans this way, so a ``--jobs N`` trace reads exactly like
        the serial one.
        """
        if not self.enabled:
            return
        mapping: Dict[int, int] = {}
        for row in rows:
            new_id = self._next_id
            self._next_id += 1
            mapping[row["id"]] = new_id
            old_parent = row.get("parent")
            if old_parent is None:
                parent_id = parent.span_id if parent is not None else None
            else:
                parent_id = mapping.get(old_parent)
            span = Span(
                new_id,
                parent_id,
                row["name"],
                t0=row.get("t0", 0.0),
                t1=row.get("t1", 0.0),
                attrs=dict(row.get("attrs", {})),
                events=list(row.get("events", [])),
            )
            if old_parent is None and root_attrs:
                span.set(**root_attrs)
            self.spans.append(span)

    # -- queries ----------------------------------------------------------

    def of_kind(self, kind: EventKind) -> List[TraceEvent]:
        """All events of one kind, in time order."""
        return [e for e in self.events if e.kind is kind]

    def count(self, kind: EventKind) -> int:
        return sum(1 for e in self.events if e.kind is kind)

    def between(self, t0: float, t1: float) -> Iterator[TraceEvent]:
        """Events with ``t0 <= time < t1``."""
        return (e for e in self.events if t0 <= e.time_s < t1)

    def series_arrays(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """A named series as ``(times, values)`` arrays (empty arrays
        for a series never sampled)."""
        arr = np.asarray(self.series.get(name, ()), dtype=np.float64)
        if arr.size == 0:
            return np.empty(0), np.empty(0)
        return arr[:, 0], arr[:, 1]

    def request_latencies(self) -> List[Tuple[int, float]]:
        """(node, latency) pairs matching releases to recharges."""
        pending: Dict[int, float] = {}
        out: List[Tuple[int, float]] = []
        for e in self.events:
            if e.kind is EventKind.REQUEST_RELEASED:
                pending[e.subject] = e.time_s
            elif e.kind is EventKind.NODE_RECHARGED and e.subject in pending:
                out.append((e.subject, e.time_s - pending.pop(e.subject)))
        return out

    def rv_trail(self, rv_id: int) -> List[Tuple[float, int]]:
        """The node-visit sequence of one RV: (time, node) per arrival."""
        return [
            (e.time_s, int(e.value))
            for e in self.events
            if e.kind is EventKind.RV_ARRIVED and e.subject == rv_id
        ]

    def summary_counts(self) -> Dict[str, int]:
        """Event counts keyed by kind name."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind.value] = out.get(e.kind.value, 0) + 1
        return out

    # -- derived instruments ----------------------------------------------

    def snapshot(self, n_rvs: int = 0) -> Dict[str, Dict[str, Any]]:
        """The run's instrument snapshot, derived from the record.

        Four groups, in this key order: ``counters`` — the
        ``monitors.violations`` total, the :data:`EVENT_COUNTERS`,
        per-RV ``fleet.rv{i}.sorties`` and ``fleet.rv{i}.delivered_j``
        for ``i < n_rvs`` (a recharge is credited to the RV whose
        arrival at that node precedes it) and the per-invariant counts
        from the violation marks; ``gauges`` — ``gate.backlog``, the
        last ``backlog`` sample; ``histograms`` — ``fleet.sortie_stops``
        and ``fleet.delivered_j`` over the sortie and recharge values;
        ``timers`` — one per :data:`TIMED_PHASES` entry over the phase
        durations, in seconds.  Counters are floats and every sum
        accumulates in record order, so a number is the same bits a
        live counter would have kept.
        """
        values: Dict[EventKind, List[float]] = {kind: [] for kind in EventKind}
        rv_sorties = {i: 0.0 for i in range(n_rvs)}
        rv_delivered = {i: 0.0 for i in range(n_rvs)}
        at_node: Dict[int, int] = {}
        for e in self.events:
            values[e.kind].append(e.value)
            if e.kind is EventKind.SORTIE_ASSIGNED:
                rv_sorties[e.subject] = rv_sorties.get(e.subject, 0.0) + 1
            elif e.kind is EventKind.RV_ARRIVED:
                at_node[int(e.value)] = e.subject
            elif e.kind is EventKind.NODE_RECHARGED and e.subject in at_node:
                rv = at_node.pop(e.subject)
                rv_delivered[rv] = rv_delivered.get(rv, 0.0) + e.value
        durations: Dict[str, List[float]] = {}
        for span in self.spans:
            durations.setdefault(span.name, []).append(span.t1 - span.t0)

        counters: Dict[str, float] = {"monitors.violations": 0.0}
        for name, (source, rule) in EVENT_COUNTERS.items():
            if isinstance(source, EventKind):
                records = values[source]
            else:
                records = durations.get(source, ())
            counters[name] = 0.0
            if rule == "sum":
                for v in records:
                    _inc(counters, name, v)
            else:
                _inc(counters, name, len(records))
        for i, n in rv_sorties.items():
            _inc(counters, f"fleet.rv{i}.sorties", n)
        for i, j in rv_delivered.items():
            _inc(counters, f"fleet.rv{i}.delivered_j", j)
        for mark in self.marks:
            if mark["name"] == VIOLATION:
                _inc(counters, "monitors.violations", 1)
                _inc(counters, f"monitors.{mark['invariant']}.violations", 1)
        backlog = self.series.get("backlog")
        return {
            "counters": counters,
            "gauges": {"gate.backlog": float(backlog[-1][1]) if backlog else 0.0},
            "histograms": {
                name: dict(zip(_HISTOGRAM_FIELDS, _summary(values[kind])))
                for name, kind in (
                    ("fleet.sortie_stops", EventKind.SORTIE_ASSIGNED),
                    ("fleet.delivered_j", EventKind.NODE_RECHARGED),
                )
            },
            "timers": {
                name: dict(zip(_TIMER_FIELDS, _summary(durations.get(phase, []))))
                for phase, name in TIMED_PHASES.items()
            },
        }

    # -- serialization ------------------------------------------------------

    def to_jsonl_lines(self) -> Iterator[str]:
        """``events.jsonl``: the events, then the series samples.

        Each line is one JSON object tagged ``"type": "event"`` or
        ``"type": "sample"``; :meth:`read_jsonl` inverts it exactly.
        """
        for e in self.events:
            yield json.dumps(
                {
                    "type": "event",
                    "t": e.time_s,
                    "kind": e.kind.value,
                    "subject": e.subject,
                    "value": e.value,
                }
            )
        for name, samples in self.series.items():
            for t, v in samples:
                yield json.dumps({"type": "sample", "t": t, "series": name, "value": v})

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Write :meth:`to_jsonl_lines` to ``path``; returns the path."""
        path = Path(path)
        with open(path, "w") as f:
            for line in self.to_jsonl_lines():
                f.write(line + "\n")
        return path

    @classmethod
    def read_jsonl(cls, path: Union[str, Path]) -> "EventLog":
        """Rebuild the events and series from :meth:`write_jsonl` output.

        Round-trips exactly: event order, sample order and all numeric
        payloads are preserved.  Lines with an unknown ``type`` raise
        ``ValueError``.
        """
        log = cls()
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                rtype = record.get("type")
                if rtype == "event":
                    log.events.append(
                        TraceEvent(
                            float(record["t"]),
                            EventKind(record["kind"]),
                            int(record.get("subject", -1)),
                            float(record.get("value", 0.0)),
                        )
                    )
                elif rtype == "sample":
                    log.sample(float(record["t"]), record["series"], float(record["value"]))
                else:
                    raise ValueError(f"{path}:{lineno}: unknown trace record type {rtype!r}")
        return log

    def span_rows(self) -> List[Dict[str, Any]]:
        """Every span as its ``spans.jsonl`` row, in open order."""
        return [span.to_row() for span in self.spans]

    def span_lines(self) -> List[str]:
        """``spans.jsonl``, one line per span."""
        return spans_to_jsonl_lines(self.span_rows())


#: The shared disabled log: the default wherever no log is attached.
NULL_LOG = EventLog(enabled=False)


class NullMonitors:
    """The zero-overhead fast path.

    ``enabled`` is False, so components skip the pre-copy work
    (battery snapshots, backlog maps) entirely; the check methods are
    still callable no-ops for defensive call sites.
    """

    enabled = False
    strict = False
    violations: Iterable[Dict[str, Any]] = ()

    def check_battery_bounds(self, *args: Any, **kwargs: Any) -> None:
        pass

    def check_alive_mask(self, *args: Any, **kwargs: Any) -> None:
        pass

    def check_energy_conservation(self, *args: Any, **kwargs: Any) -> None:
        pass

    def check_erc_release(self, *args: Any, **kwargs: Any) -> None:
        pass

    def check_erc_release_arrays(self, *args: Any, **kwargs: Any) -> None:
        pass

    def check_plan_capacity(self, *args: Any, **kwargs: Any) -> None:
        pass

    def check_atomic_service(self, *args: Any, **kwargs: Any) -> None:
        pass

    def summary(self) -> Dict[str, Any]:
        return {"total": 0, "by_invariant": {}}

    def describe(self) -> Dict[str, Any]:
        return {"strict": False}


#: The shared default; simulation state falls back to it when no
#: monitors are attached (one instance is enough — it holds no state).
NULL_MONITORS = NullMonitors()


class NullBlackBox:
    """The zero-overhead default (mirrors ``NULL_LOG``).

    ``enabled`` is False; components guard every recording touch point
    on it, so the disabled path costs one attribute load.  The methods
    remain callable no-ops for defensive call sites.
    """

    enabled = False
    seq = 0
    capacity = 0
    checkpoint_every = 0
    checkpoints: Iterable[Dict[str, Any]] = ()
    violations: Iterable[Dict[str, Any]] = ()

    def note(self, key: str, value: Any) -> None:
        pass

    def note_violation(self, record: Dict[str, Any]) -> None:
        pass

    def record(self, *args: Any, **kwargs: Any) -> int:
        return 0

    def should_checkpoint(self) -> bool:
        return False

    def add_checkpoint(self, checkpoint: Dict[str, Any]) -> None:
        pass

    def rows(self) -> List[Dict[str, Any]]:
        return []

    def flush(self, *args: Any, **kwargs: Any) -> Path:
        raise RuntimeError("the black box is disabled; nothing to flush")


#: Shared stateless instance — the default wherever no recorder is wired.
NULL_BLACKBOX = NullBlackBox()
