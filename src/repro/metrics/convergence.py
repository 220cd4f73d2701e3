"""Convergence measures used by the paper's evaluation.

Table I reports *time to reach a target test accuracy*, computed here from a
recorded accuracy-vs-time series.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["time_to_accuracy"]


def time_to_accuracy(
    times: Sequence[float], accuracies: Sequence[float], target: float
) -> float | None:
    """First time at which the accuracy reaches ``target``.

    Returns ``None`` when the target is never reached — rendered as "−" in
    the paper's Table I.
    """
    times = np.asarray(list(times), dtype=np.float64)
    accuracies = np.asarray(list(accuracies), dtype=np.float64)
    if times.shape != accuracies.shape or times.ndim != 1:
        raise ValueError("times and accuracies must be 1-D sequences of equal length")
    if times.size and np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing")
    reached = np.nonzero(accuracies >= target)[0]
    if reached.size == 0:
        return None
    return float(times[reached[0]])
