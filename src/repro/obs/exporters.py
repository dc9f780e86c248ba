"""Pluggable telemetry exporters, registered by name.

An exporter turns one run's :class:`TelemetryBundle` — the instrument
snapshot, the final summary, the configuration, and (optionally) the
run's :class:`~repro.obs.log.EventLog` — into files inside a telemetry
directory.  Exporters register in :data:`repro.registry.EXPORTERS`
exactly like schedulers register in ``SCHEDULERS``, so third parties
can add formats without touching the runner or the CLI::

    from repro.registry import EXPORTERS

    @EXPORTERS.register("parquet")
    def _build():
        return MyParquetExporter()

Built-ins:

* ``jsonl`` — ``events.jsonl`` (the log's events and series samples,
  its JSONL round-trip format) plus ``metrics.jsonl`` (one JSON object
  per instrument);
* ``prometheus`` — ``metrics.prom``, a Prometheus text-format snapshot;
* ``csv`` — ``series.csv`` (the log's time series, long format) and
  ``instruments.csv``;
* ``spans`` — ``spans.jsonl``, the log's phases as a span tree
  (:mod:`repro.obs.spans`), one span per line in open order;
* ``sqlite`` — ``telemetry.sqlite``, a stdlib :mod:`sqlite3` database
  with one table for instruments and one for span rows (queryable
  without loading JSON; not in the defaults — opt in with
  ``--exporters``).

This module never imports :mod:`repro.sim`, which keeps ``repro.obs``
importable from the simulation state without an import cycle.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..registry import EXPORTERS

__all__ = [
    "CsvExporter",
    "JsonlExporter",
    "PrometheusExporter",
    "SpansExporter",
    "SqliteExporter",
    "TelemetryBundle",
    "DEFAULT_EXPORTERS",
    "prometheus_lines",
]

#: The exporter names a telemetry run enables when none are requested.
DEFAULT_EXPORTERS = ("jsonl", "prometheus", "csv", "spans")


@dataclass
class TelemetryBundle:
    """Everything one run hands to its exporters.

    Attributes:
        instruments: an instrument snapshot dict (for a run,
            ``EventLog.snapshot()``).
        summary: the final ``SimulationSummary.as_dict()``.
        config: the run's ``config_to_dict`` view.
        log: the run's :class:`~repro.obs.log.EventLog` (or ``None``
            when only instruments were collected).
    """

    instruments: Dict[str, Any] = field(default_factory=dict)
    summary: Dict[str, float] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    log: Optional[Any] = None


# Prometheus exposition format 0.0.4: metric names must match
# [a-zA-Z_:][a-zA-Z0-9_:]*.  Colons are reserved for recording rules,
# so every other character maps to "_" and runs collapse to one.
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_]")
_PROM_COLLAPSE = re.compile(r"__+")


def _prom_name(name: str) -> str:
    """A dotted instrument name as a valid Prometheus metric name.

    ``fleet.rv0.delivered-j`` -> ``repro_fleet_rv0_delivered_j``: every
    invalid character (dots, dashes, unicode) becomes ``_``, duplicate
    underscores collapse, and the ``repro_`` prefix keeps the first
    character legal even for names starting with a digit.
    """
    safe = _PROM_COLLAPSE.sub("_", _PROM_INVALID.sub("_", name)).strip("_")
    return f"repro_{safe}"


def _prom_unique(metric: str, used: set) -> str:
    """Disambiguate sanitized-name collisions (``a.b`` vs ``a_b``).

    Duplicate metric names would make the exposition invalid, so later
    claimants get a numbered suffix.
    """
    candidate = metric
    n = 2
    while candidate in used:
        candidate = f"{metric}_dup{n}"
        n += 1
    used.add(candidate)
    return candidate


class JsonlExporter:
    """``events.jsonl`` + ``metrics.jsonl``: the line-oriented formats.

    ``events.jsonl`` is the log's own JSONL format (one event or series
    sample per line), so a telemetry directory and a saved log are the
    same format; ``metrics.jsonl`` holds one object per instrument with
    a ``"instrument"`` kind tag.
    """

    def export(self, out_dir: Path, bundle: TelemetryBundle) -> List[Path]:
        out_dir = Path(out_dir)
        written: List[Path] = []
        if bundle.log is not None:
            written.append(bundle.log.write_jsonl(out_dir / "events.jsonl"))
        metrics = out_dir / "metrics.jsonl"
        with open(metrics, "w") as f:
            snap = bundle.instruments
            for kind in ("counters", "gauges"):
                for name, value in snap.get(kind, {}).items():
                    f.write(json.dumps(
                        {"instrument": kind[:-1], "name": name, "value": value}
                    ) + "\n")
            for kind in ("histograms", "timers"):
                for name, summary in snap.get(kind, {}).items():
                    f.write(json.dumps(
                        {"instrument": kind[:-1], "name": name, **summary}
                    ) + "\n")
        written.append(metrics)
        return written


def _prom_escape_help(text: str) -> str:
    """Escape a HELP string per exposition format (backslash, newline)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_histogram_lines(
    metric: str, count: float, total: float, help_text: str
) -> List[str]:
    """A ``histogram``-typed series: HELP/TYPE, one ``+Inf`` bucket
    equal to the count, ``_sum`` and ``_count``."""
    return [
        f"# HELP {metric} {_prom_escape_help(help_text)}",
        f"# TYPE {metric} histogram",
        f'{metric}_bucket{{le="+Inf"}} {count:g}',
        f"{metric}_sum {total:g}",
        f"{metric}_count {count:g}",
    ]


def prometheus_lines(
    snapshot: Dict[str, Any],
    summary: Optional[Dict[str, float]] = None,
) -> List[str]:
    """Render an ``EventLog.snapshot()`` as exposition-format lines.

    The dialect: ``# HELP`` / ``# TYPE`` for every family, ``_total``
    counters, plain gauges, and ``_bucket`` / ``_sum`` / ``_count``
    histogram series (timers in seconds) with the single ``+Inf``
    bucket.
    """
    lines: List[str] = []
    used: set = set()
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_unique(_prom_name(name) + "_total", used)
        lines += [
            f"# HELP {metric} {_prom_escape_help(f'counter {name}')}",
            f"# TYPE {metric} counter",
            f"{metric} {value:g}",
        ]
    for name, value in snapshot.get("gauges", {}).items():
        metric = _prom_unique(_prom_name(name), used)
        lines += [
            f"# HELP {metric} {_prom_escape_help(f'gauge {name}')}",
            f"# TYPE {metric} gauge",
            f"{metric} {value:g}",
        ]
    for name, s in snapshot.get("histograms", {}).items():
        metric = _prom_unique(_prom_name(name), used)
        lines += _prom_histogram_lines(
            metric, s["count"], s["total"], f"histogram {name}"
        )
    for name, s in snapshot.get("timers", {}).items():
        metric = _prom_unique(_prom_name(name) + "_seconds", used)
        lines += _prom_histogram_lines(
            metric, s["count"], s["total_s"], f"timer {name} (seconds)"
        )
    for key, value in (summary or {}).items():
        metric = _prom_unique(_prom_name(f"summary.{key}"), used)
        lines += [
            f"# HELP {metric} {_prom_escape_help(f'final summary {key}')}",
            f"# TYPE {metric} gauge",
            f"{metric} {value:g}",
        ]
    return lines


class PrometheusExporter:
    """``metrics.prom``: a Prometheus text-format (0.0.4) snapshot.

    Counters and gauges map directly; histograms and timers are
    exposed as proper ``histogram`` families with ``_bucket`` /
    ``_sum`` / ``_count`` series (timers in seconds), each preceded by
    ``# HELP`` and ``# TYPE``.  The final simulation summary rides
    along as ``repro_summary_*`` gauges so a scrape of an archived run
    carries its headline figures.
    """

    def export(self, out_dir: Path, bundle: TelemetryBundle) -> List[Path]:
        lines = prometheus_lines(bundle.instruments, bundle.summary)
        path = Path(out_dir) / "metrics.prom"
        path.write_text("\n".join(lines) + "\n")
        return [path]


def _instrument_rows(snapshot: Dict[str, Any]) -> Iterator[Tuple[str, str, str, Any]]:
    """The snapshot flattened to ``(kind, name, field, value)`` rows:
    the rows of ``instruments.csv`` and of the sqlite ``instruments``
    table."""
    for kind in ("counters", "gauges"):
        for name, value in snapshot.get(kind, {}).items():
            yield kind[:-1], name, "value", value
    for kind in ("histograms", "timers"):
        for name, summary in snapshot.get(kind, {}).items():
            for fieldname, value in summary.items():
                yield kind[:-1], name, fieldname, value


class CsvExporter:
    """``series.csv`` + ``instruments.csv``: spreadsheet-friendly views.

    ``series.csv`` is the long-format dump of the log's named time
    series (``series,time_s,value``); ``instruments.csv`` flattens the
    instrument snapshot to ``kind,name,field,value`` rows.
    """

    def export(self, out_dir: Path, bundle: TelemetryBundle) -> List[Path]:
        out_dir = Path(out_dir)
        written: List[Path] = []
        if bundle.log is not None:
            series_path = out_dir / "series.csv"
            with open(series_path, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["series", "time_s", "value"])
                for name, samples in bundle.log.series.items():
                    for t, v in samples:
                        writer.writerow([name, repr(float(t)), repr(float(v))])
            written.append(series_path)
        inst_path = out_dir / "instruments.csv"
        with open(inst_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["kind", "name", "field", "value"])
            for kind, name, fieldname, value in _instrument_rows(bundle.instruments):
                writer.writerow([kind, name, fieldname, repr(float(value))])
        written.append(inst_path)
        return written


class SpansExporter:
    """``spans.jsonl``: the log's span tree, one span per line.

    The format round-trips byte-for-byte through
    :func:`repro.obs.spans.load_spans` /
    :func:`repro.obs.spans.spans_to_jsonl_lines`, and ``repro report``
    renders it as an aggregated tree.  Writes nothing when the bundle
    carries no log or the log opened no phase.
    """

    def export(self, out_dir: Path, bundle: TelemetryBundle) -> List[Path]:
        if bundle.log is None or not bundle.log.spans:
            return []
        path = Path(out_dir) / "spans.jsonl"
        with open(path, "w") as f:
            for line in bundle.log.span_lines():
                f.write(line + "\n")
        return [path]


class SqliteExporter:
    """``telemetry.sqlite``: instruments and spans as queryable tables.

    Two tables, per the documented third-party-exporter contract:

    * ``instruments(kind, name, field, value)`` — the flattened
      instrument snapshot (same rows as ``instruments.csv``) plus the
      final summary metrics under ``kind='summary'``;
    * ``spans(span_id, parent_id, name, t0, t1, duration_s, attrs,
      events)`` — one row per span, attributes and events as JSON text.

    Uses only the stdlib :mod:`sqlite3`; an existing database at the
    target path is replaced so re-exports stay idempotent.
    """

    def export(self, out_dir: Path, bundle: TelemetryBundle) -> List[Path]:
        import sqlite3

        path = Path(out_dir) / "telemetry.sqlite"
        if path.exists():
            path.unlink()
        conn = sqlite3.connect(path)
        try:
            conn.execute(
                "CREATE TABLE instruments "
                "(kind TEXT, name TEXT, field TEXT, value REAL)"
            )
            rows = [
                (kind, name, fieldname, float(value))
                for kind, name, fieldname, value in _instrument_rows(bundle.instruments)
            ]
            for key, value in bundle.summary.items():
                rows.append(("summary", key, "value", float(value)))
            conn.executemany("INSERT INTO instruments VALUES (?, ?, ?, ?)", rows)
            conn.execute(
                "CREATE TABLE spans (span_id INTEGER PRIMARY KEY, "
                "parent_id INTEGER, name TEXT, t0 REAL, t1 REAL, "
                "duration_s REAL, attrs TEXT, events TEXT)"
            )
            if bundle.log is not None:
                conn.executemany(
                    "INSERT INTO spans VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            row["id"],
                            row["parent"],
                            row["name"],
                            row["t0"],
                            row["t1"],
                            row["t1"] - row["t0"],
                            json.dumps(row["attrs"]),
                            json.dumps(row["events"]),
                        )
                        for row in bundle.log.span_rows()
                    ],
                )
            conn.commit()
        finally:
            conn.close()
        return [path]


EXPORTERS.register(
    "jsonl",
    JsonlExporter,
    doc="events.jsonl + metrics.jsonl (the event log's round-trip format).",
)
EXPORTERS.register(
    "prometheus",
    PrometheusExporter,
    doc="metrics.prom: Prometheus text-format snapshot.",
)
EXPORTERS.register(
    "csv",
    CsvExporter,
    doc="series.csv + instruments.csv time-series tables.",
)
EXPORTERS.register(
    "spans",
    SpansExporter,
    doc="spans.jsonl: hierarchical span tree (flight-recorder trace).",
)
EXPORTERS.register(
    "sqlite",
    SqliteExporter,
    doc="telemetry.sqlite: instruments + spans as queryable tables.",
)
