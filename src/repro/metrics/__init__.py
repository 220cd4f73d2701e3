"""Measurement utilities: accuracy, convergence, throughput."""

from repro.metrics.accuracy import top1_accuracy, evaluate_model
from repro.metrics.convergence import time_to_accuracy
from repro.metrics.throughput import (
    iteration_throughput,
    PercentileSummary,
    percentile,
    percentile_summary,
    ThroughputSummary,
    TransferSummary,
    transfer_summary,
)
from repro.metrics.plotting import ascii_curves

__all__ = [
    "top1_accuracy",
    "evaluate_model",
    "time_to_accuracy",
    "iteration_throughput",
    "PercentileSummary",
    "percentile",
    "percentile_summary",
    "ThroughputSummary",
    "TransferSummary",
    "transfer_summary",
    "ascii_curves",
]
