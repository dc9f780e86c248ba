"""Declared stats-snapshot schemas for the pool and store stats dicts.

``WarmPool.stats`` and ``ResultStore.stats`` mirror their counts into
``repro.obs`` counters.  Each schema below is the single declaration of
both: components build their stats dict with
:meth:`StatsSchema.new_stats` and derive the mirrored instrument name
with :meth:`StatsSchema.counter_name`, so the dict keys and counter
names can never drift apart.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Tuple

__all__ = [
    "StatField",
    "StatsSchema",
    "POOL_STATS",
    "STORE_STATS",
]


class StatField(NamedTuple):
    """One key in a stats snapshot dict."""

    key: str          # wire key in the stats dict
    description: str  # what it counts


class StatsSchema:
    """An ordered, named set of counter-valued stat fields."""

    def __init__(self, name: str, prefix: str, fields: Iterable[StatField]) -> None:
        self.name = name
        #: Dotted instrument-name prefix, e.g. ``"pool"`` → ``pool.respawns``.
        self.prefix = prefix
        self.fields: Tuple[StatField, ...] = tuple(fields)
        keys = [f.key for f in self.fields]
        if len(keys) != len(set(keys)):
            raise ValueError(f"schema {name!r} has duplicate keys")
        self._keys = frozenset(keys)

    def new_stats(self) -> Dict[str, int]:
        """A fresh all-zero stats dict with exactly the declared keys."""
        return {f.key: 0 for f in self.fields}

    def counter_name(self, key: str) -> str:
        """The mirrored instrument name for a wire key."""
        if key not in self._keys:
            raise KeyError(f"{key!r} is not declared in schema {self.name!r}")
        return f"{self.prefix}.{key}"


#: ``WarmPool.stats`` — mirrored as ``pool.<key>`` counters.
POOL_STATS = StatsSchema(
    "pool_stats",
    "pool",
    [
        StatField("respawns", "workers replaced after a crash"),
        StatField("tasks", "cells submitted to the pool"),
    ],
)

#: ``ResultStore.stats`` — mirrored as ``store.<key>`` counters.
STORE_STATS = StatsSchema(
    "store_stats",
    "store",
    [
        StatField("hits", "store lookups that returned a result"),
        StatField("misses", "store lookups that found nothing"),
        StatField("puts", "results written to the store"),
        StatField("dedup", "puts skipped because the key already existed"),
        StatField("corrupt", "store objects rejected by integrity checks"),
    ],
)
