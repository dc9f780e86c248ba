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
(``store.corrupt``), quarantined (unlinked) and treated as a miss —
never a crash.  Writes are atomic: each writer fills its own uniquely
named temp file in the blob's directory and renames it into place, so
concurrent writers of one key (several processes sharing a store)
neither corrupt nor trip over each other.

Eviction is explicit and LRU: hits touch the blob's mtime, and
:meth:`evict` drops the oldest blobs until the store fits the given
entry/byte caps.

Opt in with ``REPRO_STORE=<dir>`` (the executor consults
:meth:`from_env`) or by passing a store instance to
``map_configs`` / ``map_cells`` / ``submit_grid``.  Unset, nothing is
created — not even the root directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Dict, List, Optional

from ..obs.instruments import NULL_INSTRUMENTS
from ..obs.schema import STORE_STATS
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

    ``instruments`` (optional) records ``store.hits`` /
    ``store.misses`` / ``store.puts`` / ``store.dedup`` /
    ``store.corrupt`` counters; the same totals are always kept in
    :attr:`stats`.  Per-call ``instruments`` overrides on ``get`` /
    ``put`` let the executor route counts into a sweep's own registry.
    """

    def __init__(self, root, instruments=None) -> None:
        self.root = pathlib.Path(root)
        self._instruments = NULL_INSTRUMENTS if instruments is None else instruments
        # Keys come from the declared schema — the schema test asserts
        # this dict and STORE_STATS can never drift apart.
        self.stats: Dict[str, int] = STORE_STATS.new_stats()

    @classmethod
    def from_env(cls, instruments=None) -> Optional["ResultStore"]:
        """The store named by ``REPRO_STORE``, or None (disabled).

        No directory is created here — the root materializes on the
        first ``put``.
        """
        value = os.environ.get("REPRO_STORE", "").strip()
        if not value:
            return None
        return cls(value, instruments=instruments)

    # -- keys and paths -----------------------------------------------

    def key_for(self, config: SimulationConfig) -> str:
        """The cell's content address (config + code version digest)."""
        return config_key(config)

    def _blob_path(self, key: str) -> pathlib.Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def _count(self, name: str, instruments, amount: int = 1) -> None:
        self.stats[name] += amount
        obs = self._instruments if instruments is None else instruments
        obs.counter(STORE_STATS.counter_name(name)).inc(amount)

    # -- read/write ---------------------------------------------------

    def get(
        self, config: SimulationConfig, instruments=None
    ) -> Optional[SimulationSummary]:
        """The stored summary for ``config``, or None on miss.

        A blob that fails to parse or whose integrity hash mismatches
        is quarantined (best-effort unlink), counted as
        ``store.corrupt`` *and* as a miss — corruption degrades to
        recomputation, never to an exception.
        """
        summary = self.get_by_key(self.key_for(config), instruments=instruments)
        return summary

    def get_by_key(
        self, key: str, instruments=None
    ) -> Optional[SimulationSummary]:
        """Like :meth:`get` for an already-computed content address."""
        path = self._blob_path(key)
        try:
            blob = json.loads(path.read_text())
            summary_dict = blob["summary"]
            if blob.get("sha256") != _payload_digest(summary_dict):
                raise ValueError("integrity hash mismatch")
            summary = summary_from_dict(summary_dict)
        except FileNotFoundError:
            self._count("misses", instruments)
            return None
        except (ValueError, KeyError, TypeError, OSError):
            self._count("corrupt", instruments)
            self._count("misses", instruments)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._count("hits", instruments)
        try:  # LRU bookkeeping: a hit refreshes the blob's mtime
            os.utime(path)
        except OSError:
            pass
        return summary

    def put(
        self,
        config: SimulationConfig,
        summary: SimulationSummary,
        instruments=None,
        source: Optional[str] = None,
    ) -> str:
        """Store a completed cell; returns its content address.

        Content addressing makes re-puts no-ops (``store.dedup``): the
        key pins config *and* code version, so an existing blob already
        holds this exact payload.  ``source`` records execution
        provenance (``"run"`` serial, ``"batch"`` the batched engine)
        in the blob — it is metadata only, outside the integrity hash,
        which stays a function of the summary payload alone.
        """
        key = self.key_for(config)
        path = self._blob_path(key)
        if path.exists():
            self._count("dedup", instruments)
            return key
        path.parent.mkdir(parents=True, exist_ok=True)
        summary_dict = summary.as_dict()
        blob = {
            "key": key,
            "summary": summary_dict,
            "sha256": _payload_digest(summary_dict),
        }
        if source is not None:
            blob["source"] = source
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
        self._count("puts", instruments)
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
