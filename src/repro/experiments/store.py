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

A hit does the fixed per-cell work once and nothing more: the caller
may pass the key it already derived, the blob is read from disk as
bytes and its digest re-checked every time (no in-memory memo), and the
blob's mtime is touched.

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
from typing import Dict, List, Optional, Tuple

from ..sim.config import SimulationConfig
from ..sim.metrics import SimulationSummary
from .cache import canonical_json, config_key, summary_from_dict

__all__ = ["ResultStore"]


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _payload_digest(summary_dict: Dict[str, float]) -> str:
    """The integrity hash stored inside each blob."""
    return _text_digest(canonical_json(summary_dict))


class ResultStore:
    """Content-addressed blob store for completed sweep cells.

    :attr:`stats` holds the lifetime totals (see the module docs).
    """

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self._objects = os.path.join(os.fspath(root), "objects")
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

    def _blob_file(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], key + ".json")

    def _blob_path(self, key: str) -> pathlib.Path:
        return pathlib.Path(self._blob_file(key))

    # -- read/write ---------------------------------------------------

    def get(
        self, config: SimulationConfig, key: Optional[str] = None
    ) -> Optional[SimulationSummary]:
        """The stored summary for ``config``, or None on miss.

        ``key`` is ``config``'s :meth:`key_for` when the caller already
        holds it.  A blob that fails to parse or whose integrity hash
        mismatches is quarantined (best-effort unlink), counted as
        ``corrupt`` *and* as a miss — corruption degrades to
        recomputation, never to an exception.
        """
        path = self._blob_file(key or self.key_for(config))
        try:
            with open(path, "rb") as handle:  # a binary read skips TextIOWrapper
                blob = json.loads(handle.read().decode())
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
                os.unlink(path)
            except OSError:
                pass
            return None
        self.stats["hits"] += 1
        try:  # LRU bookkeeping: a hit refreshes the blob's mtime
            os.utime(path)
        except OSError:
            pass
        return summary

    def put(
        self,
        config: SimulationConfig,
        summary: SimulationSummary,
        key: Optional[str] = None,
    ) -> str:
        """Store a completed cell; returns its content address.

        ``key`` is ``config``'s :meth:`key_for` when the caller already
        holds it.  Content addressing makes re-puts no-ops (counted as
        ``dedup``): the key pins config *and* code version, so an
        existing blob already holds this exact payload.
        """
        key = key or self.key_for(config)
        path = self._blob_file(key)
        if os.path.exists(path):
            self.stats["dedup"] += 1
            return key
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        # The summary is encoded once: the digest and the blob share the
        # text, and the blob is what ``canonical_json`` makes of
        # ``{"key", "sha256", "summary"}`` (keys in sorted order).
        summary_text = canonical_json(summary.as_dict())
        digest = _text_digest(summary_text)
        text = f'{{"key": "{key}", "sha256": "{digest}", "summary": {summary_text}}}'
        # A private temp name per writer: a shared ``<key>.tmp`` lets one
        # writer's rename move another's file out from under it.
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                os.fchmod(fd, 0o644)  # mkstemp's 0600 would hide blobs from other readers
                handle.write(text.encode())
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
        return os.path.exists(self._blob_file(self.key_for(config)))

    # -- inventory and eviction ---------------------------------------

    def _blobs(self) -> List[pathlib.Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    def _blob_stats(self) -> List[Tuple[float, int, pathlib.Path]]:
        """``(mtime, size, path)`` per blob, one ``stat`` each.

        A blob that vanishes between the listing and its ``stat`` (a
        concurrent quarantine or eviction by another process sharing
        the store) is skipped.
        """
        out = []
        for path in self._blobs():
            try:
                st = path.stat()
            except FileNotFoundError:
                continue
            out.append((st.st_mtime, st.st_size, path))
        return out

    def keys(self) -> List[str]:
        """Every stored content address (sorted)."""
        return [p.stem for p in self._blobs()]

    def __len__(self) -> int:
        return len(self._blobs())

    def total_bytes(self) -> int:
        """Bytes of blob payload currently on disk."""
        return sum(size for _, size, _ in self._blob_stats())

    def describe(self) -> Dict[str, int]:
        """A JSON-friendly snapshot (entries, bytes, lifetime totals)."""
        blobs = self._blob_stats()
        return {
            "entries": len(blobs),
            "bytes": sum(size for _, size, _ in blobs),
            **self.stats,
        }

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
        blobs = self._blob_stats()
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
