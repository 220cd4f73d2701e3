"""Virtual clock for the discrete-event simulation."""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """Monotonically advancing virtual time in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("start time must be >= 0")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` (never backwards)."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move virtual time backwards: {timestamp} < {self._now}"
            )
        self._now = float(timestamp)
        return self._now
