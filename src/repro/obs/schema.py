"""Declared stats-snapshot schemas for pool / store / service wire dicts.

Before this module, ``WarmPool.stats``, ``ResultStore.stats`` and the
service ``describe()`` payload were hand-maintained dicts whose keys
had to be kept in sync with the ``repro.obs`` counter names mirrored
alongside them — three places to update, nothing enforcing agreement.
Each schema below is the single declaration: components build their
stats dict with :meth:`StatsSchema.new_stats` and derive the mirrored
instrument name with :meth:`StatsSchema.counter_name`, and the schema
test asserts the wire keys seen in live payloads match the declaration
exactly, so they can never drift apart again.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Tuple

__all__ = [
    "StatField",
    "StatsSchema",
    "POOL_STATS",
    "STORE_STATS",
    "SERVICE_DESCRIBE_KEYS",
]


class StatField(NamedTuple):
    """One key in a stats snapshot dict."""

    key: str          # wire key in the stats dict
    description: str  # what it counts (also the Prometheus HELP text)


class StatsSchema:
    """An ordered, named set of counter-valued stat fields."""

    def __init__(self, name: str, prefix: str, fields: Iterable[StatField]) -> None:
        self.name = name
        #: Dotted instrument-name prefix, e.g. ``"pool"`` → ``pool.warm_hits``.
        self.prefix = prefix
        self.fields: Tuple[StatField, ...] = tuple(fields)
        keys = [f.key for f in self.fields]
        if len(keys) != len(set(keys)):
            raise ValueError(f"schema {name!r} has duplicate keys")
        self._keys = frozenset(keys)

    def keys(self) -> List[str]:
        return [f.key for f in self.fields]

    def new_stats(self) -> Dict[str, int]:
        """A fresh all-zero stats dict with exactly the declared keys."""
        return {f.key: 0 for f in self.fields}

    def counter_name(self, key: str) -> str:
        """The mirrored instrument name for a wire key."""
        if key not in self._keys:
            raise KeyError(f"{key!r} is not declared in schema {self.name!r}")
        return f"{self.prefix}.{key}"

    def validate(self, stats: Dict[str, int]) -> None:
        """Raise if ``stats`` has extra or missing keys vs the schema."""
        got = set(stats)
        if got != self._keys:
            missing = sorted(self._keys - got)
            extra = sorted(got - self._keys)
            raise ValueError(
                f"stats dict does not match schema {self.name!r}: "
                f"missing={missing} extra={extra}"
            )

    def help_text(self, key: str) -> str:
        for f in self.fields:
            if f.key == key:
                return f.description
        raise KeyError(key)


#: ``WarmPool.stats`` — mirrored as ``pool.<key>`` counters.
POOL_STATS = StatsSchema(
    "pool_stats",
    "pool",
    [
        StatField("cold_starts", "worker processes spawned from cold"),
        StatField("warm_hits", "tasks served by an already-warm worker"),
        StatField("respawns", "workers replaced after a crash"),
        StatField("reaps", "workers retired by idle reaping"),
        StatField("tasks", "tasks completed by the pool"),
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

#: Top-level keys the service ``describe()`` payload must carry.
#: (Values are nested dicts — ``pool`` embeds POOL_STATS keys, ``store``
#: embeds the store's describe() which includes STORE_STATS keys.)
SERVICE_DESCRIBE_KEYS: Tuple[str, ...] = (
    "jobs",
    "warm",
    "requests_served",
    "counters",
)
