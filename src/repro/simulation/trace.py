"""Execution traces of simulated training runs.

Every push, release, block and evaluation is recorded with its virtual
timestamp so that experiments can reconstruct per-worker timelines — the
kind of picture Figure 1 and Figure 2 of the paper draw.  Waiting times
are the worker reports' (``SimulationResult.wait_time_per_worker``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TraceRecord", "SimulationTrace"]


@dataclass(frozen=True)
class TraceRecord:
    """One event in the simulated timeline."""

    time: float
    kind: str
    worker_id: str | None = None
    details: dict = field(default_factory=dict)


class SimulationTrace:
    """Append-only list of trace records."""

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []

    def record(self, time: float, kind: str, worker_id: str | None = None, **details) -> None:
        """Append a record (time must be non-negative)."""
        if time < 0:
            raise ValueError("trace time must be >= 0")
        self._records.append(
            TraceRecord(time=float(time), kind=kind, worker_id=worker_id, details=details)
        )

    def push_times(self, worker_id: str) -> np.ndarray:
        """Virtual times of a worker's pushes."""
        return np.array(
            [record.time for record in self._records
             if record.kind == "push" and record.worker_id == worker_id],
            dtype=np.float64,
        )

    def __len__(self) -> int:
        return len(self._records)
