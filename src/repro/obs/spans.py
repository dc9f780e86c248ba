"""Reading ``spans.jsonl`` back: its reader and the span tree.

A *span* (:class:`~repro.obs.log.Span`) is one timed piece of work with
a name, a parent, structured attributes and point-in-time events.  The
run's :class:`~repro.obs.log.EventLog` opens one per phase (the run,
every tick/dispatch/relocation event and each component phase:
``energy.advance``, ``scheduler.assign``...), so an archived
``spans.jsonl`` replays *which tick, which cluster, which scheduler
decision* produced a result.

Serialization round-trips exactly: :meth:`~repro.obs.log.Span.to_row`
has a fixed key order (:meth:`~repro.obs.log.EventLog.span_lines`
writes it), :func:`load_spans` reads rows back, and re-dumping loaded
rows with ``json.dumps`` reproduces the file byte for byte (JSON floats
are shortest-round-trip).  Only the reading tools (``repro report``)
import this module; a run records through the log alone.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Union

__all__ = [
    "load_spans",
    "render_span_tree",
]


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
