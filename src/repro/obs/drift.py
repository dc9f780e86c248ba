"""Cross-run drift detection over archived telemetry and benchmarks.

``repro drift A B`` compares the *deterministic* metrics of two
archives — summary metrics, instrument counters and gauges from a
telemetry directory's ``manifest.json``, or the recorded speedups of a
``BENCH_*.json`` benchmark file — and reports every metric whose
relative/absolute delta exceeds the configured tolerances.  Wall-clock
phase timers are deliberately excluded: they are machine noise, not
drift.

When both directories hold an ``events.jsonl``, the report also names
where the two runs diverge (:func:`event_divergence`): the first
differing digest row, when the flight recorder was armed, and the
first differing event.  The metrics say *that* two runs differ, the
event log says *where*; a digest row names the first state that
differs, often thousands of ticks before a decision does.

``repro drift BENCH_x.json`` (one argument) diffs the file's last two
append-only history rows, so a perf regression shows up without
keeping two checkouts around.

Exit codes: 0 (no drift), 1 (drift detected), 2 (usage/IO error) —
scriptable in CI.
"""

from __future__ import annotations

import fnmatch
import json
from itertools import zip_longest
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..utils.tables import format_table
from .manifest import MANIFEST_FILENAME

__all__ = [
    "diff_metrics",
    "event_divergence",
    "format_drift",
    "load_history_pair",
    "load_metrics",
]

#: The event-log file of a telemetry directory.
EVENTS_FILENAME = "events.jsonl"
#: How every digest row of ``events.jsonl`` starts (its key order is
#: fixed by :func:`repro.obs.blackbox.digest_row`).
_DIGEST_PREFIX = '{"type": "digest"'


def _flatten(prefix: str, value: Any, out: Dict[str, float]) -> None:
    """Flatten nested dicts of numbers into dotted metric names."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)


def load_metrics(path: Union[str, Path]) -> Dict[str, float]:
    """Deterministic metrics from a telemetry dir or BENCH json file.

    * a directory: its ``manifest.json`` — ``summary.*`` metrics plus
      instrument ``counter.*`` and ``gauge.*`` values (timers and
      histogram timings are wall-clock noise and are skipped);
    * a ``BENCH_*.json`` file: the numeric fields of its latest
      ``history`` row (speedups, worker counts), prefixed ``bench.``.
    """
    p = Path(path)
    if p.is_dir():
        manifest_path = p / MANIFEST_FILENAME
        if not manifest_path.is_file():
            raise FileNotFoundError(
                f"no {MANIFEST_FILENAME} under {p} "
                f"(run `repro run --telemetry {p}` first)"
            )
        data = json.loads(manifest_path.read_text())
        out: Dict[str, float] = {}
        _flatten("summary", data.get("summary", {}), out)
        instruments = data.get("instruments", {})
        _flatten("counter", instruments.get("counters", {}), out)
        _flatten("gauge", instruments.get("gauges", {}), out)
        # Histogram value statistics are deterministic (counts of
        # observed Joules/stops), unlike timers.
        for name, summary in instruments.get("histograms", {}).items():
            _flatten(f"histogram.{name}", summary, out)
        return out
    if p.is_file():
        data = json.loads(p.read_text())
        history = data.get("history") or []
        row = history[-1] if history else data
        out = {}
        _flatten("bench", row, out)
        return out
    raise FileNotFoundError(f"{p} is neither a telemetry directory nor a file")


def load_history_pair(path: Union[str, Path]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The last two history rows of one ``BENCH_*.json``, flattened."""
    data = json.loads(Path(path).read_text())
    history = data.get("history") or []
    if len(history) < 2:
        raise ValueError(
            f"{path} has {len(history)} history row(s); need at least 2 to diff"
        )
    a: Dict[str, float] = {}
    b: Dict[str, float] = {}
    _flatten("bench", history[-2], a)
    _flatten("bench", history[-1], b)
    return a, b


def diff_metrics(
    a: Dict[str, float],
    b: Dict[str, float],
    rtol: float = 0.01,
    atol: float = 1e-9,
    ignore: Optional[List[str]] = None,
) -> List[Dict[str, Any]]:
    """Per-metric comparison rows, drifted metrics first.

    A metric drifts when ``|a - b| > atol + rtol * max(|a|, |b|)``;
    metrics present on only one side always count as drift.  Metrics
    matching any ``ignore`` fnmatch pattern are dropped before the
    comparison — for metrics that exist on one side by design, like
    the per-RV ``fleet.rv*`` counters when diffing runs with different
    fleet sizes.
    """
    rows: List[Dict[str, Any]] = []
    keys = sorted(set(a) | set(b))
    if ignore:
        keys = [
            k for k in keys
            if not any(fnmatch.fnmatch(k, pat) for pat in ignore)
        ]
    for key in keys:
        va = a.get(key)
        vb = b.get(key)
        if va is None or vb is None:
            rows.append({
                "metric": key, "a": va, "b": vb, "delta": None,
                "status": "only_a" if vb is None else "only_b",
            })
            continue
        delta = vb - va
        scale = max(abs(va), abs(vb))
        drifted = abs(delta) > atol + rtol * scale
        rows.append({
            "metric": key,
            "a": va,
            "b": vb,
            "delta": delta,
            "rel": (delta / scale) if scale > 0 else 0.0,
            "status": "drift" if drifted else "ok",
        })
    rows.sort(key=lambda r: (r["status"] == "ok", r["metric"]))
    return rows


def format_drift(
    rows: List[Dict[str, Any]],
    label_a: str = "A",
    label_b: str = "B",
    show_ok: bool = False,
    rtol: float = 0.01,
    atol: float = 1e-9,
) -> str:
    """Render :func:`diff_metrics` rows as a table plus a verdict line."""
    drifted = [r for r in rows if r["status"] != "ok"]
    shown = rows if show_ok else drifted
    blocks: List[str] = []
    if shown:
        table_rows = []
        for r in shown:
            table_rows.append([
                r["metric"],
                "-" if r["a"] is None else f"{r['a']:.6g}",
                "-" if r["b"] is None else f"{r['b']:.6g}",
                "-" if r.get("delta") is None else f"{r['delta']:+.6g}",
                r["status"],
            ])
        blocks.append(format_table(
            ["metric", label_a, label_b, "delta", "status"],
            table_rows,
            title=f"Drift report (rtol={rtol:g}, atol={atol:g})",
        ))
    verdict = (
        f"{len(drifted)} metric(s) drifted out of {len(rows)} compared"
        if drifted
        else f"no drift across {len(rows)} metric(s)"
    )
    blocks.append(verdict)
    return "\n\n".join(blocks)


def _describe_row(line: Optional[str]) -> str:
    """One ``events.jsonl`` row: ``seq``, ``t``, ``kind`` and ``state``
    of a digest row, ``t``, ``kind``, ``subject`` and ``value`` of the
    others (samples show their series as the kind)."""
    if line is None:
        return "(no row: the log ends here)"
    row = json.loads(line)
    if row.get("type") == "digest":
        return f"seq={row['seq']} t={row['t']} kind={row['kind']} state={row['state'][:16]}"
    kind = row.get("kind", f"sample {row.get('series')}")
    return (
        f"t={row.get('t')} kind={kind} subject={row.get('subject', '-')} "
        f"value={row.get('value')}"
    )


def event_divergence(a: Union[str, Path], b: Union[str, Path]) -> Optional[str]:
    """Where the ``events.jsonl`` logs of two telemetry dirs part.

    Names the first differing digest row when both logs hold digest
    rows (its ``seq``, ``t``, ``kind``, state digest and, when both are
    full rows, the fields whose digests differ), then the first
    differing event or sample row (its line number and both rows).
    Returns ``None`` when either directory has no event log or the two
    logs are identical.  Runs are deterministic, so the first differing
    row is where the two trajectories part.
    """
    paths = (Path(a) / EVENTS_FILENAME, Path(b) / EVENTS_FILENAME)
    if not all(path.is_file() for path in paths):
        return None
    # is-a-digest-row -> ((lineno, line) rows of A, of B)
    streams: Dict[bool, Tuple[list, list]] = {True: ([], []), False: ([], [])}
    for side, path in enumerate(paths):
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                streams[line.startswith(_DIGEST_PREFIX)][side].append((lineno, line))
    blocks = []
    for digest in (True, False):
        rows_a, rows_b = streams[digest]
        if digest and not (rows_a and rows_b):
            continue  # one run was not armed: no state to compare
        for (na, la), (nb, lb) in zip_longest(rows_a, rows_b, fillvalue=(None, None)):
            if la == lb:
                continue
            if digest:
                text = f"First diverging digest row: seq {json.loads(la or lb)['seq']}"
            else:
                text = f"First diverging event: {EVENTS_FILENAME} line {na or nb}"
            text += f"\n  A: {_describe_row(la)}\n  B: {_describe_row(lb)}"
            if digest and la and lb:
                fa, fb = (json.loads(line).get("fields") for line in (la, lb))
                if fa and fb:
                    names = sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
                    text += f"\n  fields: {', '.join(names)}"
            blocks.append(text)
            break
    return "\n\n".join(blocks) or None
