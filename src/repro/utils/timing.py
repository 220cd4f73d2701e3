"""Small timing helpers used by the examples."""

from __future__ import annotations

import time

__all__ = ["Stopwatch", "format_seconds"]


class Stopwatch:
    """Monotonic stopwatch with lap support.

    >>> watch = Stopwatch()
    >>> watch.start()
    >>> elapsed = watch.elapsed()
    >>> elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self._laps: list[float] = []

    def start(self) -> "Stopwatch":
        """Start (or restart) the stopwatch and clear laps."""
        self._start = time.monotonic()
        self._laps.clear()
        return self

    def elapsed(self) -> float:
        """Seconds since :meth:`start`; 0.0 if never started."""
        if self._start is None:
            return 0.0
        return time.monotonic() - self._start

    def lap(self) -> float:
        """Record and return the elapsed time as a lap."""
        value = self.elapsed()
        self._laps.append(value)
        return value

    @property
    def laps(self) -> list[float]:
        """All recorded lap times, in order."""
        return list(self._laps)


def format_seconds(seconds: float) -> str:
    """Render a duration as ``1h02m03.4s`` / ``2m03.4s`` / ``3.4s``."""
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    hours, rem = divmod(seconds, 3600)
    minutes, secs = divmod(rem, 60)
    if hours >= 1:
        return f"{int(hours)}h{int(minutes):02d}m{secs:04.1f}s"
    if minutes >= 1:
        return f"{int(minutes)}m{secs:04.1f}s"
    return f"{secs:.1f}s"
