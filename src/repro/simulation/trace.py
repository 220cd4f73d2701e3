"""Push timelines of simulated training runs.

Every push is recorded with its virtual timestamp, so per-worker
push-to-push intervals (the iteration-time percentiles) and timelines —
the kind of picture Figure 1 and Figure 2 of the paper draw — can be
reconstructed.  Waiting times are the worker reports'
(``SimulationResult.wait_time_per_worker``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SimulationTrace"]


class SimulationTrace:
    """Append-only per-worker push times."""

    def __init__(self) -> None:
        self._pushes: dict[str, list[float]] = {}

    def push(self, time: float, worker_id: str) -> None:
        """Record a push of ``worker_id`` at ``time`` (non-negative)."""
        if time < 0:
            raise ValueError("trace time must be >= 0")
        self._pushes.setdefault(worker_id, []).append(float(time))

    def push_times(self, worker_id: str) -> np.ndarray:
        """Virtual times of a worker's pushes."""
        return np.array(self._pushes.get(worker_id, ()), dtype=np.float64)
