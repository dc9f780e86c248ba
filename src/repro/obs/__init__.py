"""repro.obs — the observability layer.

Instrumented runs answer *why* a result looks the way it does: named
counters, gauges, histograms and wall-clock phase timers
(:mod:`repro.obs.instruments`) are recorded by the simulation
components, hierarchical spans (:mod:`repro.obs.spans`) replay the run
tick by tick, runtime invariant monitors (:mod:`repro.obs.monitors`)
trip on conservation/threshold/capacity violations, and everything is
exported through pluggable, registry-named formats
(:mod:`repro.obs.exporters`: ``jsonl``, ``prometheus``, ``csv``,
``spans``, ``sqlite``) and archived with a provenance
:class:`RunManifest` (:mod:`repro.obs.manifest`).  ``repro report DIR``
renders an archived directory back into tables and a span tree
(:mod:`repro.obs.report`); ``repro drift A B`` diffs two archives
(:mod:`repro.obs.drift`).  A :class:`BlackBoxRecorder`
(:mod:`repro.obs.blackbox`) keeps a bounded ring of per-tick state
digests plus periodic checkpoints and flushes a self-contained
postmortem bundle on failure; ``repro postmortem`` renders it and
``repro replay`` re-executes it deterministically.

The package deliberately never imports :mod:`repro.sim` — the
simulation state holds ``instruments``/``spans``/``monitors``
references, so the dependency points one way.  The run-level glue
lives in :func:`repro.sim.runner.run_with_telemetry`.

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

from .blackbox import (
    NULL_BLACKBOX,
    BlackBoxRecorder,
    NullBlackBox,
    PostmortemBundle,
    blackbox_enabled,
    digest_rng,
    digest_state,
    format_postmortem,
    load_bundle,
)
from .drift import diff_metrics, format_drift, load_metrics
from .exporters import (
    DEFAULT_EXPORTERS,
    CsvExporter,
    JsonlExporter,
    PrometheusExporter,
    SpansExporter,
    SqliteExporter,
    TelemetryBundle,
    prometheus_lines,
)
from .instruments import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_INSTRUMENTS,
    Counter,
    Gauge,
    Histogram,
    Instruments,
    NullInstruments,
    PhaseTimer,
)
from .manifest import RunManifest, config_digest, git_revision
from .monitors import (
    NULL_MONITORS,
    InvariantViolation,
    MonitorSet,
    NullMonitors,
)
from .report import format_report, load_report
from .schema import POOL_STATS, STORE_STATS, StatField, StatsSchema
from .spans import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanTracer,
    load_spans,
    render_span_tree,
    spans_to_jsonl_lines,
)

__all__ = [
    "BlackBoxRecorder",
    "Counter",
    "CsvExporter",
    "DEFAULT_EXPORTERS",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "Instruments",
    "InvariantViolation",
    "JsonlExporter",
    "MonitorSet",
    "NULL_BLACKBOX",
    "NULL_INSTRUMENTS",
    "NULL_MONITORS",
    "NULL_TRACER",
    "NullBlackBox",
    "NullInstruments",
    "NullMonitors",
    "NullTracer",
    "PhaseTimer",
    "POOL_STATS",
    "PostmortemBundle",
    "PrometheusExporter",
    "RunManifest",
    "STORE_STATS",
    "Span",
    "SpanTracer",
    "SpansExporter",
    "SqliteExporter",
    "StatField",
    "StatsSchema",
    "TelemetryBundle",
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
