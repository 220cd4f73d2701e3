"""The DSSP synchronization controller (paper Algorithm 2).

Given the timestamps of the two latest push requests of every worker, the
controller estimates the iteration interval of the pushing (fastest) worker
``I_p`` and of the slowest worker ``I_slowest``, simulates the next
``r_max`` push times of both, and picks the number of extra iterations
``r* ∈ [0, r_max]`` whose simulated completion time lies closest to one of
the slowest worker's simulated push times — i.e. the stopping point that
minimizes the fast worker's predicted waiting time (Figure 2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clocks import ClockTable

__all__ = ["ControllerDecision", "SynchronizationController"]


@dataclass(frozen=True)
class ControllerDecision:
    """Outcome of one controller invocation.

    Attributes
    ----------
    extra_iterations:
        ``r*`` — how many additional iterations beyond ``s_L`` the fast
        worker is allowed to run.
    predicted_wait:
        The simulated waiting time (absolute difference between the chosen
        pair of simulated timestamps).
    fast_interval, slow_interval:
        The iteration-interval estimates used for the prediction.
    fast_worker, slow_worker:
        The worker ids involved.
    fallback:
        True when the controller lacked enough timing history and returned
        the conservative choice ``r* = 0``.
    """

    extra_iterations: int
    predicted_wait: float
    fast_interval: float
    slow_interval: float
    fast_worker: str
    slow_worker: str
    fallback: bool = False


class SynchronizationController:
    """Chooses the extra-iteration budget ``r*`` for the fastest worker."""

    def __init__(self, max_extra_iterations: int) -> None:
        if max_extra_iterations < 0:
            raise ValueError(
                f"max_extra_iterations must be >= 0, got {max_extra_iterations}"
            )
        self.max_extra_iterations = int(max_extra_iterations)
        self._decisions: list[ControllerDecision] = []

    @property
    def decisions(self) -> list[ControllerDecision]:
        """Every decision taken so far (useful for the Figure 2 style analysis)."""
        return list(self._decisions)

    def decide(self, clock_table: ClockTable, worker_id: str) -> ControllerDecision:
        """Run Algorithm 2 for ``worker_id`` using the clock table's table A."""
        slow_worker = clock_table.slowest_worker()
        fast_record = clock_table.record(worker_id)
        slow_record = clock_table.record(slow_worker)

        fast_interval = fast_record.latest_interval
        slow_interval = slow_record.latest_interval
        if (
            fast_interval is None
            or slow_interval is None
            or fast_interval <= 0
            or slow_interval <= 0
            or fast_record.latest_timestamp is None
            or slow_record.latest_timestamp is None
        ):
            # Not enough history to predict; behave exactly like SSP at s_L.
            decision = ControllerDecision(
                extra_iterations=0,
                predicted_wait=0.0,
                fast_interval=fast_interval or 0.0,
                slow_interval=slow_interval or 0.0,
                fast_worker=worker_id,
                slow_worker=slow_worker,
                fallback=True,
            )
            self._decisions.append(decision)
            return decision

        waits = self.predicted_waits(
            fast_record.latest_timestamp, fast_interval, slow_record.latest_timestamp, slow_interval
        )
        # Round away floating-point noise so exact ties resolve to the
        # smaller r (fewer stale iterations for the same predicted wait).
        extra = int(np.argmin(np.round(waits, 9)))
        decision = ControllerDecision(
            extra_iterations=extra,
            predicted_wait=float(waits[extra]),
            fast_interval=fast_interval,
            slow_interval=slow_interval,
            fast_worker=worker_id,
            slow_worker=slow_worker,
        )
        self._decisions.append(decision)
        return decision

    def predicted_waits(
        self,
        fast_latest: float,
        fast_interval: float,
        slow_latest: float,
        slow_interval: float,
    ) -> np.ndarray:
        """Predicted waiting time for every candidate ``r`` (Figure 2 series).

        Lines 6-8 of Algorithm 2: ``sim_fast[r] = fast_latest + r *
        fast_interval`` (``r = 0 .. r_max``, 0 is "stop now") against the
        slowest worker's next pushes ``sim_slow[k] = slow_latest + (k + 1) *
        slow_interval``; the wait of ``r`` is the smallest ``|sim_slow[k] -
        sim_fast[r]|``, and :meth:`decide` takes the ``r`` minimizing it.
        The experiment harness plots this curve, as in Figure 2.
        """
        if fast_interval <= 0 or slow_interval <= 0:
            raise ValueError("iteration intervals must be positive")
        r_values = np.arange(self.max_extra_iterations + 1, dtype=np.float64)
        sim_fast = fast_latest + r_values * fast_interval
        sim_slow = slow_latest + (r_values + 1.0) * slow_interval
        differences = np.abs(sim_slow[:, None] - sim_fast[None, :])
        return differences.min(axis=0)
