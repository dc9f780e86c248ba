"""Black-box flight recorder: bounded event records + postmortem bundles.

A :class:`BlackBoxRecorder` keeps the last N per-event records of a run
(state and RNG digests) in a bounded ring buffer, plus a short deque of
full-state checkpoints captured by the simulation layer.  What the
components decided is not recorded here: the run's
:class:`~repro.obs.log.EventLog` holds it.  On a monitor violation, an
unhandled exception, or an explicit request, the recorder flushes a
self-contained *postmortem bundle* to disk: the config, a manifest
(reason, seed, config digest, monitor tolerances, violations), the
surviving records, the retained checkpoints, and the run's event log
(``events.jsonl``, ``spans.jsonl`` and its instrument snapshot).

``repro postmortem <bundle>`` renders the bundle as an incident report
(:func:`format_postmortem`); ``repro replay <bundle>`` restores the
nearest checkpoint and re-executes deterministically
(:mod:`repro.sim.replay`), diffing replayed state digests against the
recorded ones.

This module follows the layering rule of the package: it never imports
:mod:`repro.sim`.  Records and checkpoints are opaque dicts; the
simulation side (``repro.sim.replay``) owns their schema.  Only an
armed run imports it: the recorder lives on the
:class:`~repro.sim.world.World`, which tests it for ``None`` once per
periodic event.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..utils.tables import format_table
from .log import EventLog
from .manifest import config_digest

__all__ = [
    "BUNDLE_MANIFEST_FILENAME",
    "BlackBoxRecorder",
    "PostmortemBundle",
    "checkpoint_interval_default",
    "digest_array",
    "digest_fields",
    "digest_rng",
    "digest_state",
    "format_postmortem",
    "load_bundle",
    "ring_capacity_default",
]

#: Manifest file at the root of every postmortem bundle.
BUNDLE_MANIFEST_FILENAME = "blackbox.json"
RECORDS_FILENAME = "records.jsonl"
EVENTS_FILENAME = "events.jsonl"
CHECKPOINT_DIRNAME = "checkpoints"
BUNDLE_FORMAT = 1


def ring_capacity_default() -> int:
    """Ring size from ``REPRO_BLACKBOX_TICKS`` (default 256 records)."""
    return int(os.environ.get("REPRO_BLACKBOX_TICKS", "256"))


def checkpoint_interval_default() -> int:
    """Checkpoint cadence, in tick records, from
    ``REPRO_BLACKBOX_CHECKPOINT`` (default every 64; 0 disables)."""
    return int(os.environ.get("REPRO_BLACKBOX_CHECKPOINT", "64"))


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def digest_array(value: Any) -> str:
    """SHA-256 over an array's dtype, shape and raw bytes.

    Two arrays share a digest iff they are bit-identical with the same
    dtype and shape, collapsed to one comparable string.
    """
    a = np.ascontiguousarray(value)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def digest_fields(snapshot: Dict[str, Any]) -> str:
    """One combined digest over a snapshot dict, name-sorted.

    A single hasher fed every field's name, dtype, shape and raw bytes
    — the per-event hot path of the flight recorder, an order of
    magnitude cheaper than hashing each field separately.  The value
    equals ``digest_state(snapshot)["state"]`` by construction.
    """
    h = hashlib.sha256()
    for key in sorted(snapshot):
        a = np.asarray(snapshot[key])
        h.update(key.encode())
        h.update(a.dtype.str.encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digest_state(snapshot: Dict[str, Any]) -> Dict[str, str]:
    """Per-field digests of a ``snapshot_arrays``-style dict, plus the
    combined ``state`` digest of :func:`digest_fields`.

    Field-level granularity is what makes replay divergence reports
    actionable: a mismatch names the exact array that drifted.
    """
    digests = {key: digest_array(snapshot[key]) for key in sorted(snapshot)}
    digests["state"] = digest_fields(snapshot)
    return digests


def digest_rng(state: Dict[str, Any]) -> str:
    """SHA-256 over a generator's ``bit_generator.state`` dict."""
    inner = state.get("state") if isinstance(state, dict) else None
    if isinstance(inner, dict) and all(
        type(v) is int for v in inner.values()
    ):
        # The PCG64-family layout (plain-int state words), formatted
        # directly — several times cheaper than a canonical JSON dump
        # on the per-event path.  Bit generators whose state holds
        # arrays (MT19937) take the JSON route below.
        payload = "|".join(f"{k}:{inner[k]}" for k in sorted(inner)) + (
            f"|{state.get('bit_generator')}"
            f"|{state.get('has_uint32')}|{state.get('uinteger')}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=int).encode()
    ).hexdigest()


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars/arrays so records serialize as plain JSON."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


# ---------------------------------------------------------------------------
# the recorder
# ---------------------------------------------------------------------------


class BlackBoxRecorder:
    """Bounded flight recorder for one run.

    Args:
        capacity: ring size in records (``REPRO_BLACKBOX_TICKS``
            otherwise).  Older records are evicted silently.
        checkpoint_every: take a full-state checkpoint every this many
            *tick* records (``REPRO_BLACKBOX_CHECKPOINT`` otherwise;
            ``0`` disables checkpointing — replay then starts from
            genesis).
        max_checkpoints: checkpoints retained in memory; older ones are
            dropped, keeping flush cost and bundle size bounded.

    Records are opaque dicts with a monotone ``seq`` assigned here; the
    simulation layer decides what goes in them (state and RNG digests,
    wall time, backlog).  Everything stays in memory until
    :meth:`flush` — the recorder never touches disk mid-run, which is
    what keeps the enabled-path overhead in budget.
    """

    enabled = True

    def __init__(
        self,
        capacity: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        max_checkpoints: int = 4,
    ) -> None:
        self.capacity = int(capacity) if capacity is not None else ring_capacity_default()
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.checkpoint_every = (
            int(checkpoint_every)
            if checkpoint_every is not None
            else checkpoint_interval_default()
        )
        self.seq = 0
        self._ring: deque = deque(maxlen=self.capacity)
        self.checkpoints: deque = deque(maxlen=max(1, int(max_checkpoints)))
        self._last_checkpoint_seq = 0

    # -- feeding ------------------------------------------------------

    def record(
        self,
        kind: str,
        t: float,
        digests: Dict[str, str],
        rng: Optional[str] = None,
        **attrs: Any,
    ) -> int:
        """Append one event record; returns its sequence number.

        ``kind`` names the periodic event (``tick`` / ``dispatch`` /
        ``relocate``; replay also appends ``abort``), ``digests`` is a
        :func:`digest_state` dict, ``rng`` a :func:`digest_rng` string.
        """
        self.seq += 1
        row: Dict[str, Any] = {
            "seq": self.seq,
            "kind": kind,
            "t": float(t),
            "digests": dict(digests),
        }
        if rng is not None:
            row["rng"] = rng
        row.update(attrs)
        self._ring.append(row)
        return self.seq

    # -- checkpoints ---------------------------------------------------

    def should_checkpoint(self) -> bool:
        """True when the checkpoint cadence elapsed since the last one."""
        if self.checkpoint_every <= 0:
            return False
        return self.seq - self._last_checkpoint_seq >= self.checkpoint_every

    def add_checkpoint(self, checkpoint: Dict[str, Any]) -> None:
        """Retain a full-state checkpoint (an opaque dict with ``seq``,
        ``t``, an ``arrays`` dict of numpy arrays and a JSON-friendly
        ``scalars`` dict — see :mod:`repro.sim.replay`)."""
        self.checkpoints.append(checkpoint)
        self._last_checkpoint_seq = int(checkpoint.get("seq", self.seq))

    # -- reading -------------------------------------------------------

    def rows(self) -> List[Dict[str, Any]]:
        """The surviving records, oldest first."""
        return list(self._ring)

    # -- flushing ------------------------------------------------------

    def flush(
        self,
        directory: Union[str, Path],
        *,
        reason: str,
        config: Optional[Dict[str, Any]] = None,
        monitors=None,
        log: Optional[EventLog] = None,
        error: Optional[str] = None,
        final_record: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write a self-contained postmortem bundle to ``directory``.

        Args:
            reason: why the bundle exists (``exception``, ``violation``,
                ``requested``).
            config: ``config_to_dict`` output (serialized verbatim and
                digest-stamped into the manifest).
            monitors: the run's :class:`~repro.obs.monitors.MonitorSet`;
                its strictness and tolerances (so replay can arm
                identical tripwires) and its violations go into the
                manifest.
            log: the run's event log, written as ``events.jsonl`` (the
                bytes of the telemetry file), ``spans.jsonl`` and
                ``instruments.json`` (its snapshot).
            error: stringified exception, if the run died.
            final_record: an extra record appended after the ring (the
                ``abort`` record digesting state at the failure point).

        Returns the bundle directory path.
        """
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        records = self.rows()
        if final_record is not None:
            records = records + [dict(final_record)]
        with open(out / RECORDS_FILENAME, "w") as f:
            for row in records:
                f.write(json.dumps(row, default=_json_safe) + "\n")
        ckpt_index: List[Dict[str, Any]] = []
        if self.checkpoints:
            ckpt_dir = out / CHECKPOINT_DIRNAME
            ckpt_dir.mkdir(exist_ok=True)
            for ckpt in self.checkpoints:
                seq = int(ckpt["seq"])
                stem = f"ckpt_{seq:08d}"
                np.savez(ckpt_dir / f"{stem}.npz", **ckpt["arrays"])
                (ckpt_dir / f"{stem}.json").write_text(
                    json.dumps(ckpt["scalars"], default=_json_safe)
                )
                ckpt_index.append({
                    "seq": seq,
                    "t": float(ckpt["t"]),
                    "arrays": f"{CHECKPOINT_DIRNAME}/{stem}.npz",
                    "scalars": f"{CHECKPOINT_DIRNAME}/{stem}.json",
                })
        if config is not None:
            (out / "config.json").write_text(json.dumps(config, indent=2))
        if log is not None:
            log.write_jsonl(out / EVENTS_FILENAME)
            spans = log.span_lines()
            if spans:
                (out / "spans.jsonl").write_text("\n".join(spans) + "\n")
            (out / "instruments.json").write_text(json.dumps(
                log.snapshot(int((config or {}).get("n_rvs", 0))),
                indent=2, default=_json_safe,
            ))
        manifest = {
            "format": BUNDLE_FORMAT,
            "reason": reason,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "error": error,
            "seq": self.seq,
            "capacity": self.capacity,
            "checkpoint_every": self.checkpoint_every,
            "records": len(records),
            "first_seq": int(records[0]["seq"]) if records else 0,
            "last_seq": int(records[-1]["seq"]) if records else 0,
            "monitors": monitors.describe() if monitors is not None else {},
            "config_digest": config_digest(config) if config is not None else None,
            "seed": (config or {}).get("seed"),
            "violations": [
                {k: _coerce(v) for k, v in rec.items()}
                for rec in (monitors.violations if monitors is not None else ())
            ],
            "checkpoints": ckpt_index,
        }
        (out / BUNDLE_MANIFEST_FILENAME).write_text(
            json.dumps(manifest, indent=2, default=_json_safe)
        )
        return out


def _coerce(value: Any) -> Any:
    """Best-effort plain-python view of a violation attribute."""
    try:
        json.dumps(value)
        return value
    except TypeError:
        try:
            return _json_safe(value)
        except TypeError:
            return str(value)


# ---------------------------------------------------------------------------
# bundles on disk
# ---------------------------------------------------------------------------


@dataclass
class PostmortemBundle:
    """One postmortem bundle read back from disk.

    Attributes:
        path: the bundle directory.
        manifest: the ``blackbox.json`` dict.
        records: the flight records, oldest first.
        config: the archived ``config.json`` dict (None if absent).
        checkpoints: restored checkpoint dicts (``seq``, ``t``,
            ``arrays`` of numpy arrays, ``scalars``), ascending by seq.
    """

    path: Path
    manifest: Dict[str, Any]
    records: List[Dict[str, Any]] = field(default_factory=list)
    config: Optional[Dict[str, Any]] = None
    checkpoints: List[Dict[str, Any]] = field(default_factory=list)


def load_bundle(path: Union[str, Path]) -> PostmortemBundle:
    """Read a postmortem bundle directory back into memory.

    Raises ``FileNotFoundError`` when ``path`` holds no
    ``blackbox.json`` manifest.
    """
    root = Path(path)
    manifest_path = root / BUNDLE_MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise FileNotFoundError(
            f"no {BUNDLE_MANIFEST_FILENAME} under {root} "
            "(not a postmortem bundle?)"
        )
    manifest = json.loads(manifest_path.read_text())
    records: List[Dict[str, Any]] = []
    records_path = root / RECORDS_FILENAME
    if records_path.is_file():
        for line in records_path.read_text().splitlines():
            line = line.strip()
            if line:
                records.append(json.loads(line))
    config = None
    config_path = root / "config.json"
    if config_path.is_file():
        config = json.loads(config_path.read_text())
    checkpoints: List[Dict[str, Any]] = []
    for entry in manifest.get("checkpoints", []):
        npz_path = root / entry["arrays"]
        scalars_path = root / entry["scalars"]
        if not (npz_path.is_file() and scalars_path.is_file()):
            continue
        with np.load(npz_path) as npz:
            arrays = {key: npz[key] for key in npz.files}
        checkpoints.append({
            "seq": int(entry["seq"]),
            "t": float(entry["t"]),
            "arrays": arrays,
            "scalars": json.loads(scalars_path.read_text()),
        })
    checkpoints.sort(key=lambda c: c["seq"])
    return PostmortemBundle(
        path=root, manifest=manifest, records=records, config=config,
        checkpoints=checkpoints,
    )


# ---------------------------------------------------------------------------
# the incident report
# ---------------------------------------------------------------------------

def format_postmortem(
    bundle: PostmortemBundle, max_records: int = 12
) -> str:
    """Render a bundle as a human-readable incident report."""
    m = bundle.manifest
    blocks: List[str] = []
    header = [
        ["reason", m.get("reason", "?")],
        ["created (UTC)", m.get("created_utc", "?")],
        ["seed", m.get("seed", "?")],
        ["config digest", (m.get("config_digest") or "(none)")[:16]],
        ["records kept", f"{m.get('records', 0)} (ring capacity {m.get('capacity', '?')})"],
        ["event range", f"seq {m.get('first_seq', 0)}..{m.get('last_seq', 0)}"],
        ["checkpoints", len(m.get("checkpoints", []))],
    ]
    error = m.get("error")
    if error:
        # Keep the header table narrow; the full text follows below.
        header.append(["error", error[:100] + ("..." if len(error) > 100 else "")])
    blocks.append(format_table(
        ["field", "value"], header,
        title=f"Postmortem bundle: {bundle.path}",
    ))
    if error and len(error) > 100:
        blocks.append("Full error:\n  " + error)

    violations = m.get("violations") or []
    if violations:
        rows = [
            [v.get("invariant", "?"), f"{v.get('t', 0.0):.1f}",
             str(v.get("message", ""))[:90]]
            for v in violations[:10]
        ]
        blocks.append(format_table(
            ["invariant", "t (s)", "message"], rows,
            title=f"Monitor violations ({len(violations)} total)",
        ))

    if bundle.records:
        tail = bundle.records[-max_records:]
        rows = [
            [
                rec.get("seq", "?"),
                rec.get("kind", "?"),
                f"{rec.get('t', 0.0):.1f}",
                (rec.get("digests", {}).get("state") or "?")[:12],
                (rec.get("rng") or "?")[:12],
            ]
            for rec in tail
        ]
        blocks.append(format_table(
            ["seq", "kind", "t (s)", "state digest", "rng digest"],
            rows, title=f"Last {len(tail)} flight record(s)",
        ))

    events_path = bundle.path / EVENTS_FILENAME
    if events_path.is_file():
        events = EventLog.read_jsonl(events_path).events[-max_records:]
        if events:
            rows = [
                [f"{e.time_s:.1f}", e.kind.value, e.subject, f"{e.value:.4g}"]
                for e in events
            ]
            blocks.append(format_table(
                ["t (s)", "event", "subject", "value"],
                rows, title=f"Last {len(events)} event(s) of the run's log",
            ))

    if m.get("checkpoints"):
        lines = [
            f"  seq {c['seq']} at t={c['t']:.1f}s ({c['arrays']})"
            for c in m["checkpoints"]
        ]
        blocks.append("Checkpoints (replay starting points):\n" + "\n".join(lines))

    spans_path = bundle.path / "spans.jsonl"
    if spans_path.is_file():
        from .spans import load_spans, render_span_tree

        spans = load_spans(spans_path, strict=False)
        if spans:
            blocks.append(
                f"Span tree ({len(spans)} span(s)):\n" + render_span_tree(spans)
            )

    replay_hint = (
        f"Replay: repro replay {bundle.path} --to-tick "
        f"{m.get('last_seq', 0)}"
    )
    blocks.append(replay_hint)
    return "\n\n".join(blocks)

