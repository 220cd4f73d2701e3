"""Stale Synchronous Parallel (SSP) with a fixed staleness threshold."""

from __future__ import annotations

from repro.core.policy import PushOutcome, SynchronizationPolicy

__all__ = ["StaleSynchronousParallel"]


class StaleSynchronousParallel(SynchronizationPolicy):
    """Fixed-threshold SSP (Ho et al. 2013; paper Section I-A3).

    A worker may run ahead of the slowest worker by at most ``staleness``
    iterations.  When the bound would be exceeded the pushing worker waits
    until the slowest worker catches up far enough; the other workers keep
    running, matching the "only the fastest workers wait" implementation the
    paper builds on.

    ``staleness = 0`` degenerates to BSP; ``staleness = inf`` would be ASP.
    """

    name = "ssp"

    def __init__(self, staleness: int) -> None:
        super().__init__()
        if staleness < 0:
            raise ValueError(f"staleness threshold must be >= 0, got {staleness}")
        self.staleness_threshold = int(staleness)

    @property
    def label(self) -> str:
        return f"SSP s={self.staleness_threshold}"

    def _decide(
        self, worker_id: str, clock: int, staleness: int, timestamp: float
    ) -> PushOutcome:
        del timestamp
        release = clock - self.clock_table.slowest_clock() <= self.staleness_threshold
        return PushOutcome(
            worker_id=worker_id, clock=clock, release=release, staleness=staleness
        )

    def effective_threshold(self) -> int:
        return self.staleness_threshold

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"StaleSynchronousParallel(s={self.staleness_threshold})"
