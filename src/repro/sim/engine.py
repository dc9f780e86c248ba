"""A minimal deterministic discrete-event simulation core.

The WRSN world (see :mod:`repro.sim.world`) advances battery state
*analytically* between events, so all the engine must provide is a
priority queue of timestamped callbacks with deterministic ordering:

* events fire in time order;
* simultaneous events fire in (priority, insertion-sequence) order, so
  reruns of the same seed replay identically.

Heap entries are ``(time, priority, seq, callback)`` tuples, so the
heap compares them in C.  ``seq`` is unique, so two entries never tie
on the first three fields and a callback is never compared.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["Simulator"]


class Simulator:
    """Event loop with a monotonically advancing clock (seconds)."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq = itertools.count()
        self.events_fired = 0

    def schedule(
        self,
        at: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> None:
        """Schedule ``callback`` at absolute time ``at``.

        ``priority`` breaks ties among simultaneous events: lower fires
        first (e.g. energy accounting before scheduling decisions).

        Raises:
            ValueError: when scheduling into the past.
        """
        if at < self.now:
            raise ValueError(f"cannot schedule at {at} < now {self.now}")
        heapq.heappush(self._heap, (float(at), priority, next(self._seq), callback))

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> None:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule(self.now + delay, callback, priority)

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        self.now, _, _, cb = heapq.heappop(self._heap)
        self.events_fired += 1
        cb()
        return True

    def pending_events(self) -> list:
        """The scheduled events as ``(time, priority, callback)`` triples
        in firing order.

        Used by the flight recorder to decide whether the queue is
        checkpointable and to serialize it when it is.  Entries sort as
        the heap pops them, so simultaneous events of equal priority
        keep their insertion order.
        """
        return [(t, priority, cb) for t, priority, _, cb in sorted(self._heap)]

    def reset(self, now: float, events_fired: int = 0) -> None:
        """Clear the queue and rebase the clock — checkpoint restore.

        The insertion-sequence counter keeps running; determinism only
        needs relative order among coexisting events, which the restore
        path re-establishes by rescheduling in recorded firing order.
        """
        self.now = float(now)
        self._heap = []
        self.events_fired = int(events_fired)

    def run_until(self, t_end: float) -> None:
        """Fire events up to and including time ``t_end``; the clock
        lands exactly on ``t_end`` afterwards.

        Inlined pop loop rather than repeated :meth:`step` calls: the
        tick engine fires millions of events per run.  The clock lands
        on each event's time before its callback fires.
        """
        if t_end < self.now:
            raise ValueError(f"t_end {t_end} is in the past (now {self.now})")
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            self.now, _, _, cb = heappop(heap)
            self.events_fired += 1
            cb()
        self.now = t_end
