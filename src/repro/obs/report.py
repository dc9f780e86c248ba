"""Human-readable reports over an archived telemetry directory.

``repro report DIR`` renders what :func:`repro.sim.runner.run_with_telemetry`
wrote: the manifest's provenance block, the headline summary metrics,
the phase timers and the busiest counters, plus event counts (and, for
a run armed with a flight recorder, the digest rows' count, seq range
and time range) from ``events.jsonl`` and the span tree from
``spans.jsonl``.  Everything is read back from disk — reporting needs
no simulation objects, so it works on directories produced by other
machines (or other versions).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from ..utils.tables import format_table
from .manifest import RunManifest
from .spans import load_spans, render_span_tree

__all__ = ["load_report", "format_report"]


def load_report(directory: Union[str, Path]) -> Dict[str, Any]:
    """Collect the report inputs from a telemetry directory.

    Returns a dict with the ``manifest`` (a :class:`RunManifest`) and,
    when present, ``event_counts`` / ``sample_counts`` aggregated from
    ``events.jsonl``, ``digests`` (the digest rows' ``count`` and their
    ``seq`` and ``t`` ranges as ``(first, last)``) when it holds any,
    and the raw ``spans`` rows from ``spans.jsonl``.
    Raises ``FileNotFoundError`` if the directory has no manifest.

    An archived directory that lost files (partial copy, interrupted
    run, pruned files) still reports: missing or truncated telemetry
    files are skipped and listed under ``"missing"`` instead of
    raising.
    """
    directory = Path(directory)
    manifest = RunManifest.load(directory)
    out: Dict[str, Any] = {"manifest": manifest, "directory": directory}
    missing = sorted(
        {name for name in manifest.files if not (directory / name).is_file()}
    )
    spans_path = directory / "spans.jsonl"
    if spans_path.is_file():
        # Tolerant parse: a crashed run's final line is often truncated
        # mid-write, and a postmortem reader wants the surviving spans.
        out["spans"] = load_spans(spans_path, strict=False)
    events_path = directory / "events.jsonl"
    if events_path.is_file():
        event_counts: Dict[str, int] = {}
        sample_counts: Dict[str, int] = {}
        n_digests = 0
        first = last = None  # the first and last digest rows
        with open(events_path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if record.get("type") == "event":
                    kind = record.get("kind", "?")
                    event_counts[kind] = event_counts.get(kind, 0) + 1
                elif record.get("type") == "sample":
                    name = record.get("series", "?")
                    sample_counts[name] = sample_counts.get(name, 0) + 1
                elif record.get("type") == "digest":
                    n_digests += 1
                    first = first or record
                    last = record
        out["event_counts"] = event_counts
        out["sample_counts"] = sample_counts
        if n_digests:
            out["digests"] = {
                "count": n_digests,
                "seq": (first.get("seq"), last.get("seq")),
                "t": (first.get("t"), last.get("t")),
            }
    if missing:
        out["missing"] = missing
    return out


def format_report(data: Dict[str, Any]) -> str:
    """Render :func:`load_report` output as aligned ASCII tables."""
    manifest: RunManifest = data["manifest"]
    blocks: List[str] = []

    provenance = [
        ["created (UTC)", manifest.created_utc],
        ["repro version", manifest.repro_version],
        ["git revision", manifest.git_rev or "(unknown)"],
        ["seed", manifest.seed],
        ["config digest", manifest.config_digest[:16] + "..."],
        ["scheduler", str(manifest.config.get("scheduler", "?"))],
        ["activation", str(manifest.config.get("activation", "?"))],
        ["wall time (s)", manifest.wall_time_s],
        ["files", ", ".join(manifest.files) or "(none)"],
    ]
    blocks.append(format_table(["run", "value"], provenance, precision=3,
                               title=f"Telemetry report: {data['directory']}"))

    if manifest.summary:
        rows = [[k, v] for k, v in manifest.summary.items()]
        blocks.append(format_table(["summary metric", "value"], rows, precision=4))

    timers = manifest.instruments.get("timers", {})
    if timers:
        rows = [
            [name, s["count"], s["total_s"], s["mean_s"] * 1e3, s["max_s"] * 1e3]
            for name, s in sorted(
                timers.items(), key=lambda kv: kv[1]["total_s"], reverse=True
            )
        ]
        blocks.append(format_table(
            ["phase timer", "calls", "total s", "mean ms", "max ms"],
            rows, precision=4, title="Phase timings (heaviest first)",
        ))

    counters = manifest.instruments.get("counters", {})
    if counters:
        rows = [[name, value] for name, value in counters.items()]
        blocks.append(format_table(["counter", "total"], rows, precision=2))

    histograms = manifest.instruments.get("histograms", {})
    if histograms:
        rows = [
            [name, s["count"], s["mean"], s["min"], s["max"]]
            for name, s in histograms.items()
        ]
        blocks.append(format_table(
            ["histogram", "n", "mean", "min", "max"], rows, precision=3,
        ))

    if data.get("event_counts"):
        rows = sorted(data["event_counts"].items(), key=lambda kv: -kv[1])
        blocks.append(format_table(["trace event", "count"], rows,
                                   title="events.jsonl"))

    if data.get("digests"):
        d = data["digests"]
        rows = [
            ["rows", d["count"]],
            ["seq", "{} .. {}".format(*d["seq"])],
            ["t (s)", "{} .. {}".format(*d["t"])],
        ]
        blocks.append(format_table(["digest rows", "value"], rows,
                                   title="Flight-recorder digests (events.jsonl)"))

    if data.get("spans"):
        spans = data["spans"]
        blocks.append(
            f"Span tree ({len(spans)} span(s), spans.jsonl; "
            "name x count, wall-clock total):\n"
            + render_span_tree(spans)
        )

    if data.get("missing"):
        blocks.append(
            "WARNING: manifest lists files missing from the archive "
            "(partial copy?): " + ", ".join(data["missing"])
        )

    return "\n\n".join(blocks)
