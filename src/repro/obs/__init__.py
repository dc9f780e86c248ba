"""repro.obs — the observability layer.

An observed run answers *why* a result looks the way it does.  The
simulation reports into one :class:`EventLog` (:mod:`repro.obs.log`):
a phase per timed piece of work, an event per semantic occurrence
(request released, sortie assigned, node recharged...), a sample per
time-series point and, when the flight recorder is armed, a digest row
per periodic event.  Everything a telemetry directory holds is derived
from that record at export: the events, samples and digest rows, the
span tree (:mod:`repro.obs.spans`) that replays the run tick by tick,
and the counters, gauge, histograms and phase timers of the instrument
snapshot (:meth:`EventLog.snapshot`).  Runtime invariant monitors
(:mod:`repro.obs.monitors`) trip on conservation/threshold/capacity
violations and mark them on the log.  A telemetry directory holds
three files: the log writes ``events.jsonl`` and ``spans.jsonl``
(:meth:`EventLog.write_files`), and a provenance :class:`RunManifest`
(:mod:`repro.obs.manifest`) carries the instrument snapshot in
``manifest.json``.
``repro report DIR`` renders an archived directory back into tables
and a span tree (:mod:`repro.obs.report`); ``repro drift A B`` diffs
two archives down to the first differing digest row and event
(:mod:`repro.obs.drift`).  A :class:`BlackBoxRecorder`
(:mod:`repro.obs.blackbox`) writes the digest rows into the run's log,
keeps a few full-state checkpoints, and flushes a self-contained
postmortem bundle — the checkpoints plus the log's rows since the
oldest one — on failure; ``repro postmortem`` renders it and ``repro
replay`` re-executes it deterministically.

The world, not the components, writes the digest rows.  The experiment
layer counts on the same log — a sweep's ``executor.map`` phase
carries its cell, job and store-hit counts — while the result store
and the worker pool keep their lifetime totals in their own plain
``stats`` dicts.

The package deliberately never imports :mod:`repro.sim` — the
simulation state holds ``log``/``monitors`` references and the world a
``blackbox`` one, so the dependency points one way.  The names below
resolve on first use (:mod:`repro._lazy`), and the simulation imports
only :mod:`repro.obs.log`, so a run without telemetry never loads the
rest.  The one function that arms log, monitors and recorder for a run
is :func:`repro.sim.runner.run_with_telemetry`.

Quickstart::

    from repro import SimulationConfig
    from repro.sim.runner import run_with_telemetry

    summary, manifest = run_with_telemetry(
        SimulationConfig.small(), "telemetry_out"
    )
    # telemetry_out/ now holds manifest.json, events.jsonl and
    # spans.jsonl
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".blackbox": (
        "BlackBoxRecorder",
        "PostmortemBundle",
        "digest_rng",
        "format_postmortem",
        "load_bundle",
    ),
    ".drift": ("diff_metrics", "format_drift", "load_metrics"),
    ".log": (
        "NULL_LOG",
        "NULL_MONITORS",
        "EventKind",
        "EventLog",
        "NullMonitors",
        "Span",
        "TraceEvent",
    ),
    ".manifest": ("RunManifest", "config_digest", "git_revision"),
    ".monitors": ("InvariantViolation", "MonitorSet"),
    ".report": ("format_report", "load_report"),
    ".spans": ("load_spans", "render_span_tree"),
})

__all__ = [
    "BlackBoxRecorder",
    "EventKind",
    "EventLog",
    "InvariantViolation",
    "MonitorSet",
    "NULL_LOG",
    "NULL_MONITORS",
    "NullMonitors",
    "PostmortemBundle",
    "RunManifest",
    "Span",
    "TraceEvent",
    "config_digest",
    "diff_metrics",
    "digest_rng",
    "format_drift",
    "format_postmortem",
    "format_report",
    "git_revision",
    "load_bundle",
    "load_metrics",
    "load_report",
    "load_spans",
    "render_span_tree",
]
