"""Event queue for the discrete-event simulation.

Events are ordered by timestamp with a monotonically increasing sequence
number as the tie-breaker, which keeps the simulation deterministic even
when several workers push at exactly the same virtual time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(Enum):
    """Types of events the training simulator schedules."""

    PUSH_ARRIVAL = "push_arrival"


@dataclass(frozen=True, order=False)
class Event:
    """One scheduled event."""

    time: float
    kind: EventKind
    worker_id: str | None = None


class EventQueue:
    """Min-heap of events keyed by (time, insertion order)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def push(self, event: Event) -> None:
        """Schedule an event."""
        if event.time < 0:
            raise ValueError("event time must be >= 0")
        heapq.heappush(self._heap, (event.time, next(self._counter), event))

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def peek(self) -> Event:
        """Return the earliest event without removing it."""
        if not self._heap:
            raise IndexError("peek into an empty event queue")
        return self._heap[0][2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
