"""repro.obs — the observability layer.

An observed run answers *why* a result looks the way it does.  The
simulation reports into one :class:`EventLog` (:mod:`repro.obs.log`):
a phase per timed piece of work, an event per semantic occurrence
(request released, sortie assigned, node recharged...) and a sample
per time-series point.  Everything a telemetry directory holds is
derived from that record at export: the events and series, the span
tree (:mod:`repro.obs.spans`) that replays the run tick by tick, and
the counters, gauge, histograms and phase timers of the instrument
snapshot (:meth:`EventLog.snapshot`).  Runtime invariant monitors
(:mod:`repro.obs.monitors`) trip on conservation/threshold/capacity
violations and mark them on the log.  The files come out of
pluggable, registry-named exporters (:mod:`repro.obs.exporters`:
``jsonl``, ``prometheus``, ``csv``, ``spans``, ``sqlite``), archived
with a provenance :class:`RunManifest` (:mod:`repro.obs.manifest`).
``repro report DIR`` renders an archived directory back into tables
and a span tree (:mod:`repro.obs.report`); ``repro drift A B`` diffs
two archives down to the first differing event
(:mod:`repro.obs.drift`).  A :class:`BlackBoxRecorder`
(:mod:`repro.obs.blackbox`) keeps a bounded ring of per-tick state
digests plus periodic checkpoints and flushes a self-contained
postmortem bundle on failure; ``repro postmortem`` renders it and
``repro replay`` re-executes it deterministically.

One thing stays outside the log: the black box's records, which need
state digests and checkpoints rather than events.  The experiment
layer counts on the same log — a sweep's ``executor.map`` phase
carries its cell, job and store-hit counts — while the result store
and the worker pool keep their lifetime totals in their own plain
``stats`` dicts.

The package deliberately never imports :mod:`repro.sim` — the
simulation state holds ``log``/``monitors``/``blackbox`` references,
so the dependency points one way.  The names below resolve on first
use (:mod:`repro._lazy`), and the simulation imports only
:mod:`repro.obs.log`, so a run without telemetry never loads the rest.  The run-level glue lives in
:func:`repro.sim.runner.run_with_telemetry`.

Quickstart::

    from repro import SimulationConfig
    from repro.sim.runner import run_with_telemetry

    summary, manifest = run_with_telemetry(
        SimulationConfig.small(), "telemetry_out"
    )
    # telemetry_out/ now holds manifest.json, events.jsonl,
    # metrics.jsonl, metrics.prom, series.csv, instruments.csv,
    # spans.jsonl
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".blackbox": (
        "BlackBoxRecorder",
        "PostmortemBundle",
        "blackbox_enabled",
        "digest_rng",
        "digest_state",
        "format_postmortem",
        "load_bundle",
    ),
    ".drift": ("diff_metrics", "format_drift", "load_metrics"),
    ".exporters": (
        "DEFAULT_EXPORTERS",
        "CsvExporter",
        "JsonlExporter",
        "PrometheusExporter",
        "SpansExporter",
        "SqliteExporter",
        "TelemetryBundle",
        "prometheus_lines",
    ),
    ".log": (
        "NULL_BLACKBOX",
        "NULL_LOG",
        "NULL_MONITORS",
        "EventKind",
        "EventLog",
        "NullBlackBox",
        "NullMonitors",
        "TraceEvent",
    ),
    ".manifest": ("RunManifest", "config_digest", "git_revision"),
    ".monitors": ("InvariantViolation", "MonitorSet"),
    ".report": ("format_report", "load_report"),
    ".spans": ("Span", "load_spans", "render_span_tree", "spans_to_jsonl_lines"),
})

__all__ = [
    "BlackBoxRecorder",
    "CsvExporter",
    "DEFAULT_EXPORTERS",
    "EventKind",
    "EventLog",
    "InvariantViolation",
    "JsonlExporter",
    "MonitorSet",
    "NULL_BLACKBOX",
    "NULL_LOG",
    "NULL_MONITORS",
    "NullBlackBox",
    "NullMonitors",
    "PostmortemBundle",
    "PrometheusExporter",
    "RunManifest",
    "Span",
    "SpansExporter",
    "SqliteExporter",
    "TelemetryBundle",
    "TraceEvent",
    "blackbox_enabled",
    "config_digest",
    "diff_metrics",
    "digest_rng",
    "digest_state",
    "format_drift",
    "format_postmortem",
    "format_report",
    "git_revision",
    "load_bundle",
    "load_metrics",
    "load_report",
    "load_spans",
    "prometheus_lines",
    "render_span_tree",
    "spans_to_jsonl_lines",
]
