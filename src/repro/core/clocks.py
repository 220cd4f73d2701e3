"""Worker clock and push-timestamp bookkeeping.

The server-side algorithms in the paper rely on two pieces of per-worker
state:

* ``t_i`` — the number of push requests received from worker ``i`` so far
  (the worker's *clock*), used to measure staleness; and
* table ``A`` — the timestamps of the two most recent push requests from
  each worker, used by the synchronization controller to estimate iteration
  intervals (Figure 1 of the paper).

:class:`ClockTable` holds both.

The table itself is runtime-agnostic shared state: the simulator feeds it
virtual timestamps, and the multi-process and tcp runtimes
(:mod:`repro.ps.process_runtime`, :mod:`repro.ps.tcp_runtime`) wall-clock
timestamps that originate in *different worker processes*.  The contract
that makes them all work is the same: timestamps from one worker must be non-decreasing
(each worker's pushes are ordered events on its own timeline), and
timestamps from different workers need only share a commensurable origin —
the controller (:mod:`repro.core.controller`) consumes *intervals*, which
are origin-free.  The process runtime anchors every worker's clock at the
shared start barrier, which satisfies both properties.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PushRecord", "ClockTable"]


@dataclass
class PushRecord:
    """Per-worker clock and the timestamps of its two latest pushes."""

    clock: int = 0
    latest_timestamp: float | None = None
    previous_timestamp: float | None = None

    @property
    def latest_interval(self) -> float | None:
        """Length of the most recent iteration interval, if two pushes exist."""
        if self.latest_timestamp is None or self.previous_timestamp is None:
            return None
        return self.latest_timestamp - self.previous_timestamp


class ClockTable:
    """Tracks per-worker clocks and recent push timestamps.

    Workers must be registered before their pushes are recorded; this guards
    against typos in worker identifiers silently creating phantom workers.
    """

    def __init__(self) -> None:
        self._records: dict[str, PushRecord] = {}

    # ------------------------------------------------------------------
    # Registration and recording
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str, initial_clock: int = 0) -> None:
        """Add a worker; registering twice is an error.

        ``initial_clock`` supports elastic membership: a worker joining a
        run in progress starts at the current slowest clock (so it neither
        blocks the cluster as an artificial straggler nor is granted the
        staleness budget of a worker that has been pushing since step 0),
        and a worker reconnecting after a server restart resumes at its
        checkpointed clock.
        """
        if worker_id in self._records:
            raise ValueError(f"worker {worker_id!r} is already registered")
        if initial_clock < 0:
            raise ValueError(f"initial_clock must be >= 0, got {initial_clock}")
        self._records[worker_id] = PushRecord(clock=int(initial_clock))

    def deregister_worker(self, worker_id: str) -> None:
        """Remove a worker (left, finished, or died); unknown id is an error.

        Removing the slowest worker raises :meth:`slowest_clock`, which is
        what lets the synchronization policies re-bound and release pushes
        a dead straggler was holding back.
        """
        if worker_id not in self._records:
            raise KeyError(f"worker {worker_id!r} is not registered")
        del self._records[worker_id]

    def record_push(self, worker_id: str, timestamp: float) -> int:
        """Record a push from ``worker_id`` at ``timestamp``; return its new clock.

        Timestamps from a single worker must be non-decreasing (they are
        ordered events on that worker's timeline); timestamps from
        *different* workers are never ordered against each other, so
        cross-process clock skew cannot trip this check.
        """
        record = self._get(worker_id)
        if record.latest_timestamp is not None and timestamp < record.latest_timestamp:
            raise ValueError(
                f"push timestamp for worker {worker_id!r} went backwards: "
                f"{timestamp} < {record.latest_timestamp}"
            )
        record.previous_timestamp = record.latest_timestamp
        record.latest_timestamp = float(timestamp)
        record.clock += 1
        return record.clock

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _get(self, worker_id: str) -> PushRecord:
        if worker_id not in self._records:
            raise KeyError(f"worker {worker_id!r} is not registered")
        return self._records[worker_id]

    @property
    def worker_ids(self) -> list[str]:
        """All registered worker identifiers, in registration order."""
        return list(self._records)

    @property
    def num_workers(self) -> int:
        """Number of registered workers."""
        return len(self._records)

    def clock(self, worker_id: str) -> int:
        """Number of pushes received from ``worker_id``."""
        return self._get(worker_id).clock

    def clocks(self) -> dict[str, int]:
        """Snapshot of every worker's clock."""
        return {worker_id: record.clock for worker_id, record in self._records.items()}

    def record(self, worker_id: str) -> PushRecord:
        """Full push record for a worker (clock and its two latest timestamps)."""
        return self._get(worker_id)

    def slowest_clock(self) -> int:
        """Clock of the slowest worker (0 when no workers are registered)."""
        if not self._records:
            return 0
        return min(record.clock for record in self._records.values())

    def fastest_clock(self) -> int:
        """Clock of the fastest worker (0 when no workers are registered)."""
        if not self._records:
            return 0
        return max(record.clock for record in self._records.values())

    def slowest_worker(self) -> str:
        """Identifier of a worker with the minimum clock (ties: registration order)."""
        if not self._records:
            raise RuntimeError("no workers registered")
        return min(self._records, key=lambda worker_id: self._records[worker_id].clock)

    def is_fastest(self, worker_id: str) -> bool:
        """True when ``worker_id`` has the (joint) maximum clock."""
        return self.clock(worker_id) >= self.fastest_clock()

    def staleness(self, worker_id: str) -> int:
        """How many iterations ``worker_id`` is ahead of the slowest worker."""
        return self.clock(worker_id) - self.slowest_clock()

    def latest_interval(self, worker_id: str) -> float | None:
        """Most recent iteration interval of a worker, if it has pushed twice."""
        return self._get(worker_id).latest_interval
