"""Synchronization paradigms for the parameter-server framework.

This subpackage is the paper's primary contribution plus the baselines it
compares against:

* :class:`BulkSynchronousParallel` (BSP) — full barrier every iteration.
* :class:`AsynchronousParallel` (ASP) — no synchronization at all.
* :class:`StaleSynchronousParallel` (SSP) — fixed staleness threshold ``s``.
* :class:`DynamicStaleSynchronousParallel` (DSSP) — the paper's Algorithm 1,
  with the :class:`SynchronizationController` of Algorithm 2 choosing, at run
  time, how many extra iterations the fastest worker may run beyond the lower
  threshold ``s_L`` so that its eventual wait is minimized.

Policies are pure decision logic: they consume push events (worker id +
timestamp) and emit release decisions.  Both the wall-clock runtimes in
:mod:`repro.ps` and the discrete-event simulator in :mod:`repro.simulation`
drive the same policy objects, which is what makes the reproduction's timing
results directly attributable to the paper's algorithms.
"""

from repro.core.clocks import ClockTable, PushRecord
from repro.core.policy import PushOutcome, SynchronizationPolicy
from repro.core.bsp import BulkSynchronousParallel
from repro.core.asp import AsynchronousParallel
from repro.core.ssp import StaleSynchronousParallel
from repro.core.controller import SynchronizationController, ControllerDecision
from repro.core.dssp import DynamicStaleSynchronousParallel
from repro.core.staleness import StalenessTracker, StalenessSummary
from repro.core.regret import (
    ssp_regret_bound,
    dssp_regret_bound,
    empirical_regret,
    regret_is_sublinear,
)
from repro.core.factory import (
    POLICIES,
    make_policy,
    register_policy,
    validate_paradigm,
)

__all__ = [
    "ClockTable",
    "PushRecord",
    "PushOutcome",
    "SynchronizationPolicy",
    "BulkSynchronousParallel",
    "AsynchronousParallel",
    "StaleSynchronousParallel",
    "DynamicStaleSynchronousParallel",
    "SynchronizationController",
    "ControllerDecision",
    "StalenessTracker",
    "StalenessSummary",
    "ssp_regret_bound",
    "dssp_regret_bound",
    "empirical_regret",
    "regret_is_sublinear",
    "make_policy",
    "POLICIES",
    "register_policy",
    "validate_paradigm",
]
