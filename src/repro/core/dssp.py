"""Dynamic Stale Synchronous Parallel (DSSP) — the paper's Algorithm 1.

The server keeps, per worker ``p``:

* its clock ``t_p`` (number of pushes received);
* an extra-iteration credit ``r_p`` initialized to zero.

On every push from ``p``:

1. the global weights are updated with ``p``'s gradient (handled by the
   server / simulator, not by this policy object);
2. if ``r_p > 0``: consume one credit and release ``p`` immediately;
3. else if ``t_p - t_slowest <= s_L``: release ``p`` (the ordinary SSP rule
   at the lower threshold);
4. else, if ``p`` is currently the fastest worker, invoke the
   synchronization controller (Algorithm 2) to compute ``r* ∈ [0, s_U-s_L]``;
   store it as ``r_p``; if ``r* > 0`` consume one credit and release ``p``;
5. otherwise ``p`` waits until the slowest worker catches up so that
   ``t_p - t_slowest <= s_L``.

Credits therefore let a worker run up to ``s_U - s_L`` iterations beyond the
lower bound, so the *effective* threshold varies per worker and over time in
``[s_L, s_U]``, which is exactly the paper's definition of DSSP.

Interpretation note (see also docs/paradigms.md): Algorithm 1 as printed re-invokes
the controller every time the fastest worker's credit runs out, so — read
literally — the fastest worker's lead over the slowest can keep growing as
long as the controller keeps predicting that waiting now would be wasteful.
That literal behaviour is what reproduces the paper's empirical results
(Figure 4 / Table I, where DSSP tracks ASP's convergence speed on the
heterogeneous cluster while SSP and BSP lag far behind), and it is the
default here (``enforce_upper_bound=False``).  Theorem 2's regret bound, on
the other hand, assumes the effective threshold never exceeds ``s_U``;
constructing the policy with ``enforce_upper_bound=True`` enforces exactly
that (credits are granted and consumed only while the lead stays below
``s_U``), at the cost of behaving more like SSP at ``s_U`` on very skewed
clusters.  The ablation benchmarks compare both readings.
"""

from __future__ import annotations

from repro.core.controller import ControllerDecision, SynchronizationController
from repro.core.policy import PushOutcome, SynchronizationPolicy

__all__ = ["DynamicStaleSynchronousParallel"]


class DynamicStaleSynchronousParallel(SynchronizationPolicy):
    """DSSP policy with a staleness-threshold range ``[s_lower, s_upper]``."""

    name = "dssp"

    def __init__(self, s_lower: int, s_upper: int, enforce_upper_bound: bool = False) -> None:
        super().__init__()
        if s_lower < 0:
            raise ValueError(f"s_lower must be >= 0, got {s_lower}")
        if s_upper < s_lower:
            raise ValueError(
                f"s_upper must be >= s_lower, got range [{s_lower}, {s_upper}]"
            )
        self.s_lower = int(s_lower)
        self.s_upper = int(s_upper)
        self.enforce_upper_bound = bool(enforce_upper_bound)
        self.controller = SynchronizationController(max_extra_iterations=self.r_max)
        self._credits: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def r_max(self) -> int:
        """Maximum extra iterations beyond ``s_lower`` (``s_U - s_L``)."""
        return self.s_upper - self.s_lower

    @property
    def label(self) -> str:
        return f"DSSP s={self.s_lower}, r={self.r_max}"

    def credit(self, worker_id: str) -> int:
        """Remaining extra-iteration credit ``r_p`` of a worker."""
        return self._credits.get(worker_id, 0)

    def controller_decisions(self) -> list[ControllerDecision]:
        """History of controller invocations (for analysis and Figure 2)."""
        return self.controller.decisions

    # ------------------------------------------------------------------
    # Policy interface
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str, initial_clock: int = 0) -> None:
        super().register_worker(worker_id, initial_clock)
        self._credits[worker_id] = 0

    def deregister_worker(self, worker_id: str) -> None:
        super().deregister_worker(worker_id)
        self._credits.pop(worker_id, None)

    def _decide(
        self, worker_id: str, clock: int, staleness: int, timestamp: float
    ) -> PushOutcome:
        del timestamp
        lead = clock - self.clock_table.slowest_clock()
        below_upper = (not self.enforce_upper_bound) or lead < self.s_upper

        # Step 2: consume a previously granted credit (in the strict reading,
        # only while the lead stays within [s_L, s_U]).
        if self._credits.get(worker_id, 0) > 0 and below_upper:
            self._credits[worker_id] -= 1
            return PushOutcome(
                worker_id=worker_id,
                clock=clock,
                release=True,
                staleness=staleness,
                used_extra_credit=True,
            )

        # Step 3: ordinary SSP rule at the lower threshold.
        if lead <= self.s_lower:
            return PushOutcome(
                worker_id=worker_id, clock=clock, release=True, staleness=staleness
            )

        # Step 4: only the current fastest worker consults the controller
        # (the paper restricts this to bound the server's own compute cost).
        # In the strict reading the granted budget is additionally capped so
        # the lead cannot exceed s_U.
        if self.clock_table.is_fastest(worker_id) and below_upper:
            decision = self.controller.decide(self.clock_table, worker_id)
            allowed = decision.extra_iterations
            if self.enforce_upper_bound:
                allowed = min(allowed, self.s_upper - lead)
            if allowed > 0:
                # Grant the credit and immediately consume one unit for this
                # release, so the worker runs exactly `allowed` extra iterations.
                self._credits[worker_id] = allowed - 1
                return PushOutcome(
                    worker_id=worker_id,
                    clock=clock,
                    release=True,
                    staleness=staleness,
                    used_extra_credit=True,
                    controller_extra_iterations=allowed,
                )
            return PushOutcome(
                worker_id=worker_id,
                clock=clock,
                release=False,
                staleness=staleness,
                controller_extra_iterations=0,
            )

        # Step 5: wait for the slowest worker.
        return PushOutcome(
            worker_id=worker_id, clock=clock, release=False, staleness=staleness
        )

    def effective_threshold(self) -> int:
        """Release condition for blocked workers uses the lower bound ``s_L``."""
        return self.s_lower

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"DynamicStaleSynchronousParallel(s_lower={self.s_lower}, s_upper={self.s_upper})"
