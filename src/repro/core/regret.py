"""Regret bounds for SGD under SSP and DSSP (paper Theorems 1 and 2).

Theorem 1 (Ho et al. 2013, restated): under SSP with threshold ``s`` and
``P`` workers, with step size ``eta_t = sigma / sqrt(t)`` and constants
``F`` (diameter bound) and ``L`` (Lipschitz bound), the regret satisfies

    R[X] <= 4 F L sqrt(2 (s + 1) P T).

Theorem 2 (the paper): under DSSP with range ``[s_L, s_U]`` and maximum
extra iterations ``r = s_U - s_L``, the same bound holds with ``s`` replaced
by ``s_L + r``, hence regret remains ``O(sqrt(T))``.

These helpers evaluate the bounds and compute the *empirical* regret of a
training run so the reproduction can verify sub-linearity experimentally on
a convex problem.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "ssp_regret_bound",
    "dssp_regret_bound",
    "empirical_regret",
    "regret_is_sublinear",
]


def ssp_regret_bound(
    num_iterations: int,
    staleness: int,
    num_workers: int,
    lipschitz_constant: float = 1.0,
    diameter_bound: float = 1.0,
) -> float:
    """Theorem 1 bound: ``4 F L sqrt(2 (s + 1) P T)``."""
    _check_bound_arguments(num_iterations, staleness, num_workers, lipschitz_constant, diameter_bound)
    return (
        4.0
        * diameter_bound
        * lipschitz_constant
        * math.sqrt(2.0 * (staleness + 1) * num_workers * num_iterations)
    )


def dssp_regret_bound(
    num_iterations: int,
    s_lower: int,
    max_extra_iterations: int,
    num_workers: int,
    lipschitz_constant: float = 1.0,
    diameter_bound: float = 1.0,
) -> float:
    """Theorem 2 bound: ``4 F L sqrt(2 (s_L + r + 1) P T)``.

    Equal to the SSP bound evaluated at the *upper* end of the threshold
    range, which is exactly the reduction used in the paper's proof.
    """
    if max_extra_iterations < 0:
        raise ValueError("max_extra_iterations must be >= 0")
    return ssp_regret_bound(
        num_iterations=num_iterations,
        staleness=s_lower + max_extra_iterations,
        num_workers=num_workers,
        lipschitz_constant=lipschitz_constant,
        diameter_bound=diameter_bound,
    )


def empirical_regret(losses: Sequence[float], optimal_loss: float) -> np.ndarray:
    """Cumulative regret ``sum_t f_t(w_t) - f(w*)`` given per-step losses.

    ``optimal_loss`` is the per-step loss of the best fixed decision (for the
    convex experiments we estimate it by training to convergence).
    """
    losses = np.asarray(list(losses), dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise ValueError("losses must be a non-empty 1-D sequence")
    return np.cumsum(losses - float(optimal_loss))


def regret_is_sublinear(cumulative_regret: np.ndarray, window_fraction: float = 0.25) -> bool:
    """Heuristic check that ``R[T]/T`` is decreasing towards zero.

    Compares the average regret per step over the first and last
    ``window_fraction`` of the run; sub-linear (hence convergent) behaviour
    requires the later average to be strictly smaller.
    """
    cumulative_regret = np.asarray(cumulative_regret, dtype=np.float64)
    if cumulative_regret.ndim != 1 or cumulative_regret.size < 8:
        raise ValueError("cumulative_regret must be 1-D with at least 8 entries")
    if not 0.0 < window_fraction <= 0.5:
        raise ValueError("window_fraction must be in (0, 0.5]")
    total = cumulative_regret.size
    window = max(int(total * window_fraction), 1)
    steps = np.arange(1, total + 1, dtype=np.float64)
    average_regret = cumulative_regret / steps
    early = float(average_regret[:window].mean())
    late = float(average_regret[-window:].mean())
    return late < early


def _check_bound_arguments(
    num_iterations: int,
    staleness: int,
    num_workers: int,
    lipschitz_constant: float,
    diameter_bound: float,
) -> None:
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    if staleness < 0:
        raise ValueError("staleness must be >= 0")
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if lipschitz_constant <= 0 or diameter_bound <= 0:
        raise ValueError("lipschitz_constant and diameter_bound must be > 0")
