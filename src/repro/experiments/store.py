"""Content-addressed result store for sweep cells.

The :class:`ResultStore` is the executor's only result cache, and the
durable layer cross-run reuse is built on: a blob per cell
addressed by the versioned cache key — the SHA-256 of the frozen
configuration *plus* the package version and git revision
(:func:`repro.experiments.cache.config_key`).  Two clients sweeping
overlapping grids against one store deduplicate automatically:
identical ``(config, code)`` pairs map to the same key, and ``put`` is
a no-op once the blob exists.

Layout (git-style fan-out so directories stay small at fleet scale)::

    <root>/objects/<key[:2]>/<key>.json

Each blob carries the summary payload plus its own SHA-256, so a
truncated or bit-flipped blob is detected on read, counted
(``stats["corrupt"]``), quarantined (unlinked) and treated as a miss —
never a crash.  Writes are atomic: each writer fills its own uniquely
named temp file in the blob's directory and renames it into place, so
concurrent writers of one key (several processes sharing a store)
neither corrupt nor trip over each other.

Eviction is explicit and LRU: hits touch the blob's mtime, and
:meth:`evict` drops the oldest blobs until the store fits the given
entry/byte caps.

Opt in with ``REPRO_STORE=<dir>`` (the executor consults
:meth:`from_env`) or by passing a store instance to
``map_configs`` / ``map_cells`` / ``iter_configs``.  Unset, nothing is
created — not even the root directory.

The store counts what it does in one place, the plain :attr:`stats`
dict of lifetime totals: ``hits``, ``misses``, ``puts``, ``dedup``
and ``corrupt``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Dict, List, Optional

from ..sim.config import SimulationConfig
from ..sim.metrics import SimulationSummary
from .cache import config_key, summary_from_dict

__all__ = ["ResultStore"]


def _payload_digest(summary_dict: Dict[str, float]) -> str:
    """The integrity hash stored inside each blob."""
    return hashlib.sha256(
        json.dumps(summary_dict, sort_keys=True).encode()
    ).hexdigest()


class ResultStore:
    """Content-addressed blob store for completed sweep cells.

    :attr:`stats` holds the lifetime totals (see the module docs).
    """

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "puts": 0, "dedup": 0, "corrupt": 0,
        }

    @classmethod
    def from_env(cls) -> Optional["ResultStore"]:
        """The store named by ``REPRO_STORE``, or None (disabled).

        No directory is created here — the root materializes on the
        first ``put``.
        """
        value = os.environ.get("REPRO_STORE", "").strip()
        if not value:
            return None
        return cls(value)

    # -- keys and paths -----------------------------------------------

    def key_for(self, config: SimulationConfig) -> str:
        """The cell's content address (config + code version digest)."""
        return config_key(config)

    def _blob_path(self, key: str) -> pathlib.Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    # -- read/write ---------------------------------------------------

    def get(self, config: SimulationConfig) -> Optional[SimulationSummary]:
        """The stored summary for ``config``, or None on miss.

        A blob that fails to parse or whose integrity hash mismatches
        is quarantined (best-effort unlink), counted as ``corrupt``
        *and* as a miss — corruption degrades to recomputation, never
        to an exception.
        """
        path = self._blob_path(self.key_for(config))
        try:
            blob = json.loads(path.read_text())
            summary_dict = blob["summary"]
            if blob.get("sha256") != _payload_digest(summary_dict):
                raise ValueError("integrity hash mismatch")
            summary = summary_from_dict(summary_dict)
        except FileNotFoundError:
            self.stats["misses"] += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            self.stats["corrupt"] += 1
            self.stats["misses"] += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats["hits"] += 1
        try:  # LRU bookkeeping: a hit refreshes the blob's mtime
            os.utime(path)
        except OSError:
            pass
        return summary

    def put(self, config: SimulationConfig, summary: SimulationSummary) -> str:
        """Store a completed cell; returns its content address.

        Content addressing makes re-puts no-ops (counted as
        ``dedup``): the key pins config *and* code version, so an
        existing blob already holds this exact payload.
        """
        key = self.key_for(config)
        path = self._blob_path(key)
        if path.exists():
            self.stats["dedup"] += 1
            return key
        path.parent.mkdir(parents=True, exist_ok=True)
        summary_dict = summary.as_dict()
        blob = {
            "key": key,
            "summary": summary_dict,
            "sha256": _payload_digest(summary_dict),
        }
        # A private temp name per writer: a shared ``<key>.tmp`` lets one
        # writer's rename move another's file out from under it.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                os.fchmod(fd, 0o644)  # mkstemp's 0600 would hide blobs from other readers
                handle.write(json.dumps(blob, sort_keys=True))
            os.replace(tmp, path)  # atomic on POSIX
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats["puts"] += 1
        return key

    def __contains__(self, config: SimulationConfig) -> bool:
        return self._blob_path(self.key_for(config)).exists()

    # -- inventory and eviction ---------------------------------------

    def _blobs(self) -> List[pathlib.Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    def keys(self) -> List[str]:
        """Every stored content address (sorted)."""
        return [p.stem for p in self._blobs()]

    def __len__(self) -> int:
        return len(self._blobs())

    def total_bytes(self) -> int:
        """Bytes of blob payload currently on disk."""
        return sum(p.stat().st_size for p in self._blobs())

    def describe(self) -> Dict[str, int]:
        """A JSON-friendly snapshot (entries, bytes, lifetime totals)."""
        return {"entries": len(self), "bytes": self.total_bytes(), **self.stats}

    def evict(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Drop least-recently-used blobs until both caps hold.

        Returns the number of blobs removed.  Use ``max_entries=0`` to
        clear the store.
        """
        if max_entries is None and max_bytes is None:
            return 0
        blobs = [(p.stat().st_mtime, p.stat().st_size, p) for p in self._blobs()]
        blobs.sort()  # oldest (least recently hit) first
        entries = len(blobs)
        total = sum(size for _, size, _ in blobs)
        removed = 0
        for _mtime, size, path in blobs:
            over_entries = max_entries is not None and entries > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not (over_entries or over_bytes):
                break
            try:
                path.unlink()
            except OSError:
                continue
            entries -= 1
            total -= size
            removed += 1
        return removed
