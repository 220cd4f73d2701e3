"""Duration formatting for the examples."""

from __future__ import annotations

__all__ = ["format_seconds"]


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
