"""Synchronization-policy interface shared by all paradigms.

A policy is driven by *push events*: each time a worker's gradient arrives
at the server, the runtime calls :meth:`SynchronizationPolicy.on_push` and
receives a :class:`PushOutcome` saying whether the worker may immediately
start its next iteration (the server sends the OK signal) or must wait.
Because a push from a slow worker can unblock previously-waiting fast
workers, the runtime then calls :meth:`SynchronizationPolicy.pop_releasable`
to collect every blocked worker whose release condition is now satisfied.

This event-driven interface is deliberately free of threads and clocks so
that the same policy object can be driven by the real thread-based runtime
(:mod:`repro.ps`) and by the discrete-event simulator
(:mod:`repro.simulation`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.clocks import ClockTable

__all__ = ["PushOutcome", "SynchronizationPolicy"]


@dataclass(frozen=True)
class PushOutcome:
    """Decision returned for a single push event.

    Attributes
    ----------
    worker_id:
        The pushing worker.
    clock:
        The worker's clock *after* this push was counted.
    release:
        True when the server should send OK immediately.
    staleness:
        The worker's lead over the slowest worker at decision time.
    used_extra_credit:
        True when the release was granted by consuming a DSSP extra-iteration
        credit (``r_p``) rather than by the staleness bound itself.
    controller_extra_iterations:
        The value ``r*`` chosen by the synchronization controller if it was
        invoked for this push, otherwise ``None``.
    """

    worker_id: str
    clock: int
    release: bool
    staleness: int
    used_extra_credit: bool = False
    controller_extra_iterations: int | None = None

    @property
    def blocked(self) -> bool:
        """Convenience inverse of :attr:`release`."""
        return not self.release


@dataclass
class _PolicyStatistics:
    """Fixed-size counters every policy accumulates for the experiment reports."""

    pushes: int = 0
    releases: int = 0
    blocks: int = 0
    credit_releases: int = 0
    controller_invocations: int = 0
    staleness_sum: int = 0
    staleness_max: int = 0


class SynchronizationPolicy:
    """Base class for BSP/ASP/SSP/DSSP server-side decision logic."""

    #: Human-readable paradigm name, overridden by subclasses.
    name = "base"

    @property
    def label(self) -> str:
        """Readable run label like ``"BSP"``; policies with a bound add it."""
        return self.name.upper()

    def __init__(self) -> None:
        self.clock_table = ClockTable()
        self._blocked: dict[str, int] = {}
        self.counters = _PolicyStatistics()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str, initial_clock: int = 0) -> None:
        """Register a worker, optionally at a non-zero starting clock.

        A non-zero ``initial_clock`` is the elastic-membership path: late
        joiners enter at the cluster's slowest clock and restart survivors
        resume at their checkpointed clock (see
        :meth:`repro.core.clocks.ClockTable.register_worker`).
        """
        self.clock_table.register_worker(worker_id, initial_clock)

    def deregister_worker(self, worker_id: str) -> None:
        """Remove a worker that left, finished, or died.

        Drops its clock entry and any pending block, so the staleness bound
        is recomputed over the remaining membership.  The runtime must call
        :meth:`pop_releasable` afterwards: removing a straggler can satisfy
        the wait condition of every blocked fast worker at once.
        """
        self.clock_table.deregister_worker(worker_id)
        self._blocked.pop(worker_id, None)

    @property
    def num_workers(self) -> int:
        """Number of registered workers."""
        return self.clock_table.num_workers

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def on_push(self, worker_id: str, timestamp: float) -> PushOutcome:
        """Process a push event and decide whether to release the worker."""
        clock = self.clock_table.record_push(worker_id, timestamp)
        staleness = self.clock_table.staleness(worker_id)
        outcome = self._decide(worker_id, clock, staleness, timestamp)
        self._record_outcome(outcome)
        if outcome.blocked:
            self._blocked[worker_id] = clock
        return outcome

    def _decide(
        self, worker_id: str, clock: int, staleness: int, timestamp: float
    ) -> PushOutcome:
        """Paradigm-specific decision; subclasses must override."""
        raise NotImplementedError

    def pop_releasable(self) -> list[str]:
        """Return (and forget) blocked workers whose wait condition now holds.

        The runtime calls this after every push so that an advance of the
        slowest worker's clock releases the fast workers that were waiting on
        it.  Workers are returned in the order they were blocked.
        """
        released = [
            worker_id
            for worker_id, clock in self._blocked.items()
            if self._may_release_blocked(worker_id, clock)
        ]
        for worker_id in released:
            del self._blocked[worker_id]
            self.counters.releases += 1
        return released

    def _may_release_blocked(self, worker_id: str, clock_at_block: int) -> bool:
        """Condition for releasing a blocked worker; subclasses may override."""
        del worker_id
        return self.clock_table.slowest_clock() >= clock_at_block - self.effective_threshold()

    def effective_threshold(self) -> int:
        """Current staleness bound used for blocked-worker release checks."""
        return 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def statistics(self) -> dict:
        """Summary counters for reports: pushes, releases, blocks, staleness."""
        stats = self.counters
        return {
            "paradigm": self.name,
            "pushes": stats.pushes,
            "releases": stats.releases,
            "blocks": stats.blocks,
            "credit_releases": stats.credit_releases,
            "controller_invocations": stats.controller_invocations,
            "mean_staleness": (
                float(stats.staleness_sum) / stats.pushes if stats.pushes else 0.0
            ),
            "max_staleness": stats.staleness_max,
        }

    def _record_outcome(self, outcome: PushOutcome) -> None:
        self.counters.pushes += 1
        self.counters.staleness_sum += outcome.staleness
        self.counters.staleness_max = max(self.counters.staleness_max, outcome.staleness)
        if outcome.release:
            self.counters.releases += 1
            if outcome.used_extra_credit:
                self.counters.credit_releases += 1
        else:
            self.counters.blocks += 1
        if outcome.controller_extra_iterations is not None:
            self.counters.controller_invocations += 1

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{type(self).__name__}(workers={self.num_workers})"
