"""Black-box flight recorder: state-digest rows + postmortem bundles.

A :class:`BlackBoxRecorder` writes one *digest row* per periodic event
of a run into an :class:`~repro.obs.log.EventLog` — the run's own log
when it has one, a private one otherwise — and keeps a short deque of
full-state checkpoints captured by the simulation layer.  A digest row
is ``{"type": "digest", "seq", "t", "kind", "state", "rng"}``, plus
per-field ``"fields"`` digests on decision events and every
:data:`FULL_DIGEST_EVERY`-th row; the log writes these rows after its
samples in ``events.jsonl``, so the state digests and the decisions of
a run share one stream.  On a monitor violation, an unhandled
exception, or an explicit request, the recorder flushes a
self-contained *postmortem bundle* to disk: a manifest (reason, seed,
config digest, monitor tolerances, violations, checkpoint index), the
config, the retained checkpoints, and the log's rows from the oldest
kept checkpoint onwards (``events.jsonl``).

``repro postmortem <bundle>`` renders the bundle as an incident report
(:func:`format_postmortem`); ``repro replay <bundle>`` restores the
nearest checkpoint and re-executes deterministically
(:mod:`repro.sim.replay`), diffing replayed digest rows against the
recorded ones.

This module follows the layering rule of the package: it never imports
:mod:`repro.sim`.  Snapshots and checkpoints are opaque dicts; the
simulation side (``repro.sim.replay``) owns their schema.  Only an
armed run imports it: the recorder lives on the
:class:`~repro.sim.world.World`, which tests it for ``None`` once per
periodic event.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..utils.tables import format_table
from .log import EventLog, json_safe
from .manifest import config_digest

__all__ = [
    "BUNDLE_MANIFEST_FILENAME",
    "BlackBoxRecorder",
    "PostmortemBundle",
    "digest_array",
    "digest_fields",
    "digest_rng",
    "digest_row",
    "format_postmortem",
    "load_bundle",
]

#: Manifest file at the root of every postmortem bundle.
BUNDLE_MANIFEST_FILENAME = "blackbox.json"
EVENTS_FILENAME = "events.jsonl"
#: The digest rows of bundles written before they joined the event log.
LEGACY_RECORDS_FILENAME = "records.jsonl"
CHECKPOINT_DIRNAME = "checkpoints"
BUNDLE_FORMAT = 2

#: Take a full-state checkpoint every this many digest rows (at the
#: first safe tick after that).
CHECKPOINT_EVERY = 64
#: Cadence of full per-field digests on plain ticks (decision events
#: always carry them); a pure function of ``seq``, so replayed rows
#: line up structurally with recorded ones.
FULL_DIGEST_EVERY = 16


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _array_prefix(dtype: np.dtype, shape: Tuple[int, ...]) -> bytes:
    """``str(dtype) + str(shape)``, encoded and remembered: formatting a
    dtype or a shape costs more than hashing a small array."""
    return f"{dtype}{shape}".encode()


@lru_cache(maxsize=1024)
def _field_prefix(name: str, dtype: np.dtype, shape: Tuple[int, ...]) -> bytes:
    """A field's name, ``dtype.str`` and shape, encoded and remembered."""
    return f"{name}{dtype.str}{shape}".encode()


def digest_array(value: Any) -> str:
    """SHA-256 over an array's dtype, shape and raw bytes.

    Two arrays share a digest iff they are bit-identical with the same
    dtype and shape, collapsed to one comparable string.
    """
    a = np.ascontiguousarray(value)
    return hashlib.sha256(_array_prefix(a.dtype, a.shape) + a.tobytes()).hexdigest()


def digest_fields(snapshot: Dict[str, Any]) -> str:
    """One combined digest over a snapshot dict, name-sorted.

    A single hash over every field's name, dtype, shape and raw bytes
    — the per-event hot path of the flight recorder, an order of
    magnitude cheaper than hashing each field separately (the per-field
    :func:`digest_array` digests are a row's ``"fields"``).
    """
    parts = []
    for name in sorted(snapshot):
        a = np.asarray(snapshot[name])
        parts.append(_field_prefix(name, a.dtype, a.shape))
        parts.append(a.tobytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()


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
        return _digest_int_words(
            tuple(sorted(inner.items())),
            f"|{state.get('bit_generator')}"
            f"|{state.get('has_uint32')}|{state.get('uinteger')}",
        )
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=int).encode()
    ).hexdigest()


@lru_cache(maxsize=1)
def _digest_int_words(words: Tuple[Tuple[str, int], ...], tail: str) -> str:
    """:func:`digest_rng` of plain-int state words; remembers the last
    state, since most periodic events draw no random number."""
    payload = "|".join(f"{k}:{v}" for k, v in words) + tail
    return hashlib.sha256(payload.encode()).hexdigest()


def digest_row(
    seq: int,
    kind: str,
    t: float,
    snapshot: Dict[str, Any],
    rng_state: Dict[str, Any],
    full: bool,
) -> Dict[str, Any]:
    """One digest row: the combined state digest of ``snapshot`` (a
    ``snapshot_arrays`` dict) and the RNG digest, plus the per-field
    digests when ``full``."""
    row: Dict[str, Any] = {
        "type": "digest",
        "seq": seq,
        "t": float(t),
        "kind": kind,
        "state": digest_fields(snapshot),
        "rng": digest_rng(rng_state),
    }
    if full:
        row["fields"] = {key: digest_array(snapshot[key]) for key in sorted(snapshot)}
    return row


# ---------------------------------------------------------------------------
# the recorder
# ---------------------------------------------------------------------------


class BlackBoxRecorder:
    """Flight recorder for one run.

    Args:
        checkpoint_every: take a full-state checkpoint every this many
            digest rows (:data:`CHECKPOINT_EVERY` otherwise; ``0``
            disables checkpointing — replay then starts from genesis).
        max_checkpoints: checkpoints retained in memory; older ones are
            dropped, keeping flush cost and bundle size bounded.
        log: the event log the digest rows go to — the run's own, so
            one stream holds decisions and state; a private log when
            omitted.

    Everything stays in memory until :meth:`flush` — the recorder never
    touches disk mid-run, which is what keeps the armed-path overhead
    in budget.
    """

    def __init__(
        self,
        checkpoint_every: Optional[int] = None,
        max_checkpoints: int = 4,
        log: Optional[EventLog] = None,
    ) -> None:
        self.checkpoint_every = (
            CHECKPOINT_EVERY if checkpoint_every is None else int(checkpoint_every)
        )
        self.log = log if log is not None else EventLog()
        self.seq = 0
        self.checkpoints: deque = deque(maxlen=max(1, int(max_checkpoints)))
        self._last_checkpoint_seq = 0

    def record(
        self,
        kind: str,
        t: float,
        snapshot: Dict[str, Any],
        rng_state: Dict[str, Any],
        error: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Append the next digest row to the log and return it.

        ``kind`` names the periodic event (``tick`` / ``dispatch`` /
        ``relocate``); an ``abort`` row, which carries the ``error``,
        digests the state where a run died.
        """
        self.seq += 1
        row = digest_row(
            self.seq, kind, t, snapshot, rng_state,
            full=kind != "tick" or self.seq % FULL_DIGEST_EVERY == 0,
        )
        if error is not None:
            row["error"] = error
        self.log.digests.append(row)
        return row

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

    # -- flushing ------------------------------------------------------

    def flush(
        self,
        directory: Union[str, Path],
        *,
        reason: str,
        config: Optional[Dict[str, Any]] = None,
        monitors=None,
        error: Optional[str] = None,
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
            error: stringified exception, if the run died.

        The bundle's ``events.jsonl`` holds the log's rows from the
        oldest kept checkpoint onwards (all of them without one): the
        rows of the telemetry file from that time on.  Returns the
        bundle directory path.
        """
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        ckpt_index: List[Dict[str, Any]] = []
        if self.checkpoints:
            ckpt_dir = out / CHECKPOINT_DIRNAME
            ckpt_dir.mkdir(exist_ok=True)
            for ckpt in self.checkpoints:
                seq = int(ckpt["seq"])
                stem = f"ckpt_{seq:08d}"
                np.savez(ckpt_dir / f"{stem}.npz", **ckpt["arrays"])
                (ckpt_dir / f"{stem}.json").write_text(json.dumps(json_safe(ckpt["scalars"])))
                ckpt_index.append({
                    "seq": seq,
                    "t": float(ckpt["t"]),
                    "arrays": f"{CHECKPOINT_DIRNAME}/{stem}.npz",
                    "scalars": f"{CHECKPOINT_DIRNAME}/{stem}.json",
                })
        since = ckpt_index[0]["t"] if ckpt_index else float("-inf")
        self.log.write_jsonl(out / EVENTS_FILENAME, since=since)
        if config is not None:
            (out / "config.json").write_text(json.dumps(config, indent=2))
        manifest = {
            "format": BUNDLE_FORMAT,
            "reason": reason,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "error": error,
            "seq": self.seq,
            "checkpoint_every": self.checkpoint_every,
            "monitors": monitors.describe() if monitors is not None else {},
            "config_digest": config_digest(config) if config is not None else None,
            "seed": (config or {}).get("seed"),
            "violations": json_safe(
                list(monitors.violations) if monitors is not None else []
            ),
            "checkpoints": ckpt_index,
        }
        (out / BUNDLE_MANIFEST_FILENAME).write_text(json.dumps(json_safe(manifest), indent=2))
        return out


# ---------------------------------------------------------------------------
# bundles on disk
# ---------------------------------------------------------------------------


@dataclass
class PostmortemBundle:
    """One postmortem bundle read back from disk.

    Attributes:
        path: the bundle directory.
        manifest: the ``blackbox.json`` dict.
        log: the bundle's ``events.jsonl`` (events, samples and digest
            rows from the window start; empty if absent).
        config: the archived ``config.json`` dict (None if absent).
        checkpoints: restored checkpoint dicts (``seq``, ``t``,
            ``arrays`` of numpy arrays, ``scalars``), ascending by seq.
    """

    path: Path
    manifest: Dict[str, Any]
    log: EventLog = field(default_factory=EventLog)
    config: Optional[Dict[str, Any]] = None
    checkpoints: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def digests(self) -> List[Dict[str, Any]]:
        """The digest rows, oldest first."""
        return self.log.digests


def _legacy_row(record: Dict[str, Any]) -> Dict[str, Any]:
    """A ``records.jsonl`` record as the digest row it stands for.

    Those records carried every digest (``state`` included) in one
    ``digests`` dict, plus notes that replay never compared.
    """
    fields = dict(record.get("digests", {}))
    row = {
        "type": "digest",
        "seq": record["seq"],
        "t": record["t"],
        "kind": record["kind"],
        "state": fields.pop("state", None),
        "rng": record.get("rng"),
    }
    if fields:
        row["fields"] = fields
    if "error" in record:
        row["error"] = record["error"]
    return row


def load_bundle(path: Union[str, Path]) -> PostmortemBundle:
    """Read a postmortem bundle directory back into memory.

    A bundle that holds a ``records.jsonl`` (the format before digest
    rows joined the event log) has its records read as the digest rows.
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
    events_path = root / EVENTS_FILENAME
    log = EventLog.read_jsonl(events_path) if events_path.is_file() else EventLog()
    records_path = root / LEGACY_RECORDS_FILENAME
    if records_path.is_file():
        log.digests = [
            _legacy_row(json.loads(line))
            for line in records_path.read_text().splitlines()
            if line.strip()
        ]
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
        path=root, manifest=manifest, log=log, config=config,
        checkpoints=checkpoints,
    )


# ---------------------------------------------------------------------------
# the incident report
# ---------------------------------------------------------------------------

def format_postmortem(
    bundle: PostmortemBundle, max_records: int = 12
) -> str:
    """Render a bundle as a human-readable incident report: the
    manifest, the violations, the last ``max_records`` digest rows and
    events, and the checkpoints."""
    m = bundle.manifest
    digests = bundle.digests
    last_seq = digests[-1]["seq"] if digests else 0
    blocks: List[str] = []
    header = [
        ["reason", m.get("reason", "?")],
        ["created (UTC)", m.get("created_utc", "?")],
        ["seed", m.get("seed", "?")],
        ["config digest", (m.get("config_digest") or "(none)")[:16]],
        ["digest rows", f"{len(digests)} (seq "
                        f"{digests[0]['seq'] if digests else 0}..{last_seq})"],
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

    if digests:
        tail = digests[-max_records:]
        rows = [
            [
                row["seq"],
                row.get("kind", "?"),
                f"{row.get('t', 0.0):.1f}",
                (row.get("state") or "?")[:12],
                (row.get("rng") or "?")[:12],
            ]
            for row in tail
        ]
        blocks.append(format_table(
            ["seq", "kind", "t (s)", "state digest", "rng digest"],
            rows, title=f"Last {len(tail)} digest row(s)",
        ))

    events = bundle.log.events[-max_records:]
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

    blocks.append(f"Replay: repro replay {bundle.path} --to-tick {last_seq}")
    return "\n\n".join(blocks)
