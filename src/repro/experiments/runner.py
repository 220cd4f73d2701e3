"""Paradigm-comparison runner.

The paper's figures all have the same shape: run the *same* workload under
several synchronization paradigms on the *same* cluster and compare the
accuracy-versus-training-time curves.  :func:`run_paradigm_comparison` does
exactly that — each run is described by one :class:`repro.api.ExperimentSpec`
differing only in its paradigm and executed through a pluggable backend —
and returns a :class:`ParadigmComparison` whose helpers compute the derived
quantities the paper reports (average-SSP curve, time to target accuracy,
throughput ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.experiments.workloads import Workload
from repro.simulation.cluster import ClusterSpec

if TYPE_CHECKING:  # runtime import is lazy: repro.api imports this package
    from repro.api.backends import Backend
    from repro.ps.result import RunResult

__all__ = ["ParadigmComparison", "run_paradigm_comparison", "average_curves"]


@dataclass
class ParadigmComparison:
    """Results of running one workload under several paradigms."""

    workload_name: str
    cluster: ClusterSpec
    results: dict[str, RunResult] = field(default_factory=dict)

    @property
    def labels(self) -> list[str]:
        """Labels of the runs, in insertion order."""
        return list(self.results)

    def result(self, label: str) -> RunResult:
        """Result of one run by label."""
        if label not in self.results:
            raise KeyError(f"unknown run {label!r}; available: {self.labels}")
        return self.results[label]

    def best_accuracies(self) -> dict[str, float]:
        """Best test accuracy per run."""
        return {label: result.best_accuracy for label, result in self.results.items()}

    def final_times(self) -> dict[str, float]:
        """Total training time per run."""
        return {label: result.total_time for label, result in self.results.items()}

    def throughputs(self) -> dict[str, float]:
        """Server updates per second per run."""
        return {
            label: result.throughput.updates_per_second
            for label, result in self.results.items()
        }

    def times_to_accuracy(self, target: float) -> dict[str, float | None]:
        """Training time each run needs to reach ``target`` accuracy."""
        return {label: result.time_to_accuracy(target) for label, result in self.results.items()}

    def wait_times(self) -> dict[str, float]:
        """Total synchronization waiting time per run."""
        return {label: result.total_wait_time for label, result in self.results.items()}


def run_paradigm_comparison(
    workload: Workload,
    cluster: ClusterSpec,
    paradigms: list[tuple[str, dict]],
    epochs: float,
    batch_size: int,
    learning_rate: float = 0.05,
    momentum: float = 0.9,
    lr_milestones: tuple[float, ...] = (),
    evaluate_every_updates: int = 20,
    seed: int = 0,
    labels: list[str] | None = None,
    backend: str | Backend = "simulated",
    scale: object | None = None,
) -> ParadigmComparison:
    """Run ``workload`` under every paradigm in ``paradigms`` on ``cluster``.

    ``paradigms`` is a list of ``(name, kwargs)`` pairs, e.g.
    ``[("bsp", {}), ("ssp", {"staleness": 3})]``.  Every run uses the same
    seed so the runs differ only in their synchronization behaviour.  Each
    run is one :class:`ExperimentSpec` executed by ``backend`` (name or
    instance; default the simulator), with the pre-built workload and
    cluster injected so the dataset is shared across runs.  The injection
    is recorded in each result's provenance; since the workload object
    carries its own data, the spec's ``workload`` field there is
    descriptive, not replayable (see :class:`repro.api.Provenance`).
    Pass ``scale`` (a preset name, dict or :class:`ExperimentScale`) so the
    provenance records the scale the workload was actually built at.
    """
    from repro.api.backends import get_backend, run_experiment
    from repro.api.spec import ClusterConfig, ExperimentSpec

    if not paradigms:
        raise ValueError("paradigms must not be empty")
    if labels is not None and len(labels) != len(paradigms):
        raise ValueError("labels must match paradigms in length")
    if isinstance(backend, str):
        backend = get_backend(backend)

    base_spec = ExperimentSpec(
        name=f"compare/{workload.name}",
        workload=workload.name,
        scale="tiny" if scale is None else scale,
        cluster=ClusterConfig.from_cluster_spec(cluster),
        paradigm=paradigms[0][0],
        paradigm_kwargs=dict(paradigms[0][1]),
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        momentum=momentum,
        lr_milestones=lr_milestones,
        evaluate_every_updates=evaluate_every_updates,
        seed=seed,
    )

    comparison = ParadigmComparison(workload_name=workload.name, cluster=cluster)
    for index, (name, kwargs) in enumerate(paradigms):
        spec = base_spec.replace(paradigm=name, paradigm_kwargs=dict(kwargs))
        result = run_experiment(spec, backend, workload=workload, cluster=cluster)
        label = labels[index] if labels is not None else result.paradigm_label
        comparison.results[label] = result
    return comparison


def average_curves(
    results: list[RunResult], num_points: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Average several accuracy-versus-time curves onto a common time grid.

    This reproduces the paper's "Average SSP s=3 to 15" curve: each SSP run
    finishes at a different time, so the curves are linearly interpolated
    onto a shared grid spanning the shortest run's start to the longest
    run's end (holding each curve at its final value beyond its own end).
    """
    if not results:
        raise ValueError("results must not be empty")
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    start = min(float(result.times[0]) for result in results)
    end = max(float(result.times[-1]) for result in results)
    grid = np.linspace(start, end, num_points)
    stacked = []
    for result in results:
        interpolated = np.interp(grid, result.times, result.accuracies)
        stacked.append(interpolated)
    return grid, np.mean(np.stack(stacked, axis=0), axis=0)
