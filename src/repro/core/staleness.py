"""Staleness measurement.

The *staleness of an update* is the number of global weight updates applied
between the moment the pushing worker pulled its local weights and the
moment its gradient reaches the server.  The policies bound the *iteration
lead* between workers; this tracker records the realized update staleness so
experiments can report distributions per paradigm (ASP unbounded, BSP zero,
SSP/DSSP bounded by the threshold times the worker count).

Sharding invariant: when the store is partitioned across server shards
(:class:`repro.ps.sharding.ShardedKeyValueStore`), staleness is still
defined against the **global** version — the cross-shard count of gradient
applications — never against a per-shard counter.  Per-shard versions count
how many pushes *touched* a shard and exist for dirty-tracking and
checkpointing; using them for staleness would make the measure depend on
which shards a worker's gradient happens to hit and break the paradigms'
bounds.  The server therefore records ``global_version_at_apply - 1 -
base_version`` for every push, exactly as in the monolithic layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StalenessSummary", "StalenessTracker"]


@dataclass(frozen=True)
class StalenessSummary:
    """Aggregate statistics of observed update staleness."""

    count: int
    mean: float
    maximum: int
    p50: float
    p95: float

    @staticmethod
    def empty() -> "StalenessSummary":
        """Summary representing "no observations yet"."""
        return StalenessSummary(count=0, mean=0.0, maximum=0, p50=0.0, p95=0.0)


class StalenessTracker:
    """Records the version lag of every gradient applied at the server."""

    def __init__(self) -> None:
        self._observations: list[int] = []
        self._per_worker: dict[str, list[int]] = {}

    def record(self, worker_id: str, staleness: int) -> None:
        """Record that a gradient from ``worker_id`` was ``staleness`` versions old."""
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        self._observations.append(int(staleness))
        self._per_worker.setdefault(worker_id, []).append(int(staleness))

    @property
    def observations(self) -> list[int]:
        """All recorded staleness values in arrival order."""
        return list(self._observations)

    def summary(self) -> StalenessSummary:
        """Aggregate statistics over all observations."""
        return _summarize(self._observations)

    def worker_summary(self, worker_id: str) -> StalenessSummary:
        """Aggregate statistics for one worker."""
        return _summarize(self._per_worker.get(worker_id, []))


def _summarize(observations: list[int]) -> StalenessSummary:
    if not observations:
        return StalenessSummary.empty()
    values = np.asarray(observations, dtype=np.float64)
    return StalenessSummary(
        count=int(values.size),
        mean=float(values.mean()),
        maximum=int(values.max()),
        p50=float(np.percentile(values, 50)),
        p95=float(np.percentile(values, 95)),
    )
