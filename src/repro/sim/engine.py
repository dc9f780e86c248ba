"""A minimal deterministic discrete-event simulation core.

The WRSN world (see :mod:`repro.sim.world`) advances battery state
*analytically* between events, so all the engine must provide is a
priority queue of timestamped callbacks with deterministic ordering:

* events fire in time order;
* simultaneous events fire in (priority, insertion-sequence) order, so
  reruns of the same seed replay identically;
* events can be cancelled (lazy deletion, as in the classic heapq
  recipe).

Heap entries are ``[time, priority, seq, callback]`` lists, so the heap
compares them in C.  ``seq`` is unique, so two entries never tie on
the first three fields and a callback is never compared; cancelling
sets the callback slot to ``None``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["EventHandle", "Simulator"]

# Slots of a heap entry ``[time, priority, seq, callback]``.
_TIME, _PRIORITY, _CALLBACK = 0, 1, 3


@dataclass
class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`; pass to
    :meth:`Simulator.cancel` to revoke the event."""

    __slots__ = ("_entry",)
    _entry: list

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None

    @property
    def time(self) -> float:
        return self._entry[_TIME]


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
    ) -> EventHandle:
        """Schedule ``callback`` at absolute time ``at``.

        ``priority`` breaks ties among simultaneous events: lower fires
        first (e.g. energy accounting before scheduling decisions).

        Raises:
            ValueError: when scheduling into the past.
        """
        if at < self.now:
            raise ValueError(f"cannot schedule at {at} < now {self.now}")
        entry = [float(at), priority, next(self._seq), callback]
        heapq.heappush(self._heap, entry)
        return EventHandle(entry)

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self.now + delay, callback, priority)

    def cancel(self, handle: EventHandle) -> None:
        """Revoke a scheduled event (idempotent)."""
        handle._entry[_CALLBACK] = None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty."""
        while self._heap and self._heap[0][_CALLBACK] is None:
            heapq.heappop(self._heap)
        return self._heap[0][_TIME] if self._heap else None

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            cb = entry[_CALLBACK]
            if cb is None:
                continue
            self.now = entry[_TIME]
            entry[_CALLBACK] = None
            self.events_fired += 1
            cb()
            return True
        return False

    def pending_events(self) -> list:
        """The live scheduled events as ``(time, priority, callback)``
        triples in firing order.

        Cancelled entries are skipped (not purged).  Used by the flight
        recorder to decide whether the queue is checkpointable and to
        serialize it when it is.  Entries sort as the heap pops them, so
        simultaneous events of equal priority keep their insertion order.
        """
        live = sorted(e for e in self._heap if e[_CALLBACK] is not None)
        return [(e[_TIME], e[_PRIORITY], e[_CALLBACK]) for e in live]

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

        Inlined pop loop rather than ``peek_time()`` + ``step()``: the
        tick engine fires millions of events per run and the paired
        form inspects the heap head twice per event.  Semantics are
        identical — cancelled entries are skipped lazily, the clock
        lands on each event's time before its callback fires, and
        ``events_fired`` counts only live events.
        """
        if t_end < self.now:
            raise ValueError(f"t_end {t_end} is in the past (now {self.now})")
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            head = heap[0]
            cb = head[_CALLBACK]
            if cb is None:
                heappop(heap)
                continue
            if head[_TIME] > t_end:
                break
            heappop(heap)  # pops ``head``
            self.now = head[_TIME]
            head[_CALLBACK] = None
            self.events_fired += 1
            cb()
        self.now = t_end
