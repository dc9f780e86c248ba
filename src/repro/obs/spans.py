"""Span rows: the ``spans.jsonl`` record, its reader, the tree.

A *span* is one timed piece of work with a name, a parent, structured
attributes and point-in-time events.  The run's
:class:`~repro.obs.log.EventLog` opens one per phase (the run, every
tick/dispatch/relocation event and each component phase:
``energy.advance``, ``scheduler.assign``...), so an archived
``spans.jsonl`` replays *which tick, which cluster, which scheduler
decision* produced a result.

Serialization round-trips exactly: :meth:`Span.to_row` has a fixed key
order (:meth:`~repro.obs.log.EventLog.span_lines` writes it),
:func:`load_spans` reads rows back, and re-dumping loaded rows
with ``json.dumps`` reproduces the file byte for byte
(JSON floats are shortest-round-trip).  Attribute values are coerced to
JSON-native types at record time so live rows and reloaded rows are
interchangeable.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Union

__all__ = [
    "Span",
    "load_spans",
    "render_span_tree",
]


def json_safe(value: Any) -> Any:
    """Coerce an attribute value to a JSON-native equivalent.

    Live spans must serialize to exactly what a reload would produce,
    so tuples become lists and numpy scalars become python numbers at
    record time, not at dump time.
    """
    if value is None or type(value) in (bool, int, float, str):
        return value
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    tolist = getattr(value, "tolist", None)  # numpy scalars and arrays
    if tolist is not None:
        return json_safe(tolist())
    if isinstance(value, bool):
        return bool(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, str):
        return str(value)
    return str(value)


class Span:
    """One timed unit of work in the span tree.

    ``t0``/``t1`` are ``time.perf_counter`` readings (durations are
    meaningful; absolute values are process-relative).  ``attrs`` holds
    structured context (cluster id, RV id, profit delta, cache
    hit/miss); ``events`` are timestamped point occurrences inside the
    span (sortie assignments, invariant violations).  A span opened by
    an event log is its own ``with`` block: entering stamps ``t0``,
    leaving stamps ``t1`` and pops it off the log's open stack.
    """

    __slots__ = ("span_id", "parent_id", "name", "t0", "t1", "attrs", "events", "_stack")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        t0: float = 0.0,
        t1: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None,
        events: Optional[List[Dict[str, Any]]] = None,
        stack: Optional[List["Span"]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.attrs = attrs if attrs is not None else {}
        self.events = events if events is not None else []
        self._stack = stack

    def __enter__(self) -> "Span":
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.t1 = perf_counter()
        # Spans close strictly LIFO (they are `with` blocks).
        self._stack.pop()

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) structured attributes."""
        for key, value in attrs.items():
            self.attrs[key] = json_safe(value)
        return self

    def to_row(self) -> Dict[str, Any]:
        """The canonical JSON row (fixed key order for byte round-trips)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": self.attrs,
            "events": self.events,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.span_id}, parent={self.parent_id}, {self.name!r}, "
            f"{self.duration_s:.6f}s)"
        )


def load_spans(
    source: Union[str, "Any", Iterable[str]], strict: bool = True
) -> List[Dict[str, Any]]:
    """Read span rows back from a ``spans.jsonl`` path or lines.

    With ``strict=False`` malformed lines are skipped instead of
    raising — a crashed run's last line is often truncated mid-write,
    and reporting tools want the surviving rows, not an exception.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    elif isinstance(source, (str, bytes)) or hasattr(source, "open"):
        with open(source) as f:
            lines = f.read().splitlines()
    else:
        lines = list(source)
    rows = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except ValueError:
            if strict:
                raise
    return rows


def render_span_tree(rows: List[Dict[str, Any]], max_depth: int = 6) -> str:
    """An aggregated ASCII tree over serialized span rows.

    Sibling spans with the same name collapse into one line carrying
    their count and total duration (a run has hundreds of ``tick``
    spans; nobody wants hundreds of lines), and the collapse recurses:
    the children of every ``tick`` aggregate together one level down.
    Event totals are shown per group.  Durations are wall-clock sums,
    so a timed phase's line total is its phase timer's total.
    """
    if not rows:
        return "(no spans recorded)"
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for row in rows:
        children.setdefault(row.get("parent"), []).append(row)

    lines: List[str] = []

    def walk(group: List[Dict[str, Any]], prefix: str, depth: int) -> None:
        # Group this level's rows by name, preserving first appearance.
        by_name: Dict[str, List[Dict[str, Any]]] = {}
        for row in group:
            by_name.setdefault(row["name"], []).append(row)
        items = list(by_name.items())
        for i, (name, spans) in enumerate(items):
            last = i == len(items) - 1
            branch = "`- " if last else "|- "
            total = sum(r.get("t1", 0.0) - r.get("t0", 0.0) for r in spans)
            n_events = sum(len(r.get("events", [])) for r in spans)
            note = f"  [{n_events} event(s)]" if n_events else ""
            lines.append(
                f"{prefix}{branch}{name}  x{len(spans)}  {total:.4f}s{note}"
            )
            if depth + 1 >= max_depth:
                continue
            sub: List[Dict[str, Any]] = []
            for r in spans:
                sub.extend(children.get(r["id"], []))
            if sub:
                walk(sub, prefix + ("   " if last else "|  "), depth + 1)

    walk(children.get(None, []), "", 0)
    return "\n".join(lines)
