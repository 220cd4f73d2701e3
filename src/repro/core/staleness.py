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
    """Records the version lag of every gradient applied at the server.

    Memory is bounded by the largest staleness seen, not by the number of
    pushes: the tracker keeps how many pushes arrived at each staleness.  Summaries expand those counts when asked;
    the mean is an exact integer sum and the percentiles depend only on
    the multiset of values, so they equal a summary of the full history.
    """

    def __init__(self) -> None:
        self.counts: list[int] = []

    def record(self, staleness: int) -> None:
        """Record that an applied gradient was ``staleness`` versions old."""
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        _count(self.counts, int(staleness))

    def summary(self) -> StalenessSummary:
        """Aggregate statistics over all observations."""
        return _summarize(self.counts)


def _count(counts: list[int], staleness: int) -> None:
    if staleness >= len(counts):
        counts.extend([0] * (staleness + 1 - len(counts)))
    counts[staleness] += 1


def _summarize(counts: list[int]) -> StalenessSummary:
    if not counts:
        return StalenessSummary.empty()
    values = np.repeat(np.arange(len(counts), dtype=np.float64), counts)
    return StalenessSummary(
        count=int(values.size),
        mean=float(values.mean()),
        maximum=int(values.max()),
        p50=float(np.percentile(values, 50)),
        p95=float(np.percentile(values, 95)),
    )
