"""The run record: one :class:`RunResult` per training run, on every backend.

:meth:`repro.ps.session.ServerSession.finish` builds it at the end of every
run — process, tcp and simulated alike — so the evaluation curve,
per-worker reports, staleness, throughput and the server's counters mean the
same thing whoever ran the protocol.  The time axis starts at 0.0 (training
start) and is virtual seconds in the simulator, wall-clock seconds
elsewhere.  The simulator adds what only it observes (iteration-time
percentiles, shared-link queueing, the per-push trace); ``run_experiment``
and ``python -m repro serve`` stamp ``backend`` and ``provenance``.

:meth:`RunResult.to_dict` is strict JSON (non-finite floats become the
strings ``"nan"``, ``"inf"`` and ``"-inf"``) and :meth:`RunResult.from_dict`
restores it exactly; both carry :data:`SCHEMA_VERSION`.  The tcp server
ships this dict to its watchers, and ``run --output``, ``serve --output``
and ``show`` all read and write it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.staleness import StalenessSummary
from repro.metrics.convergence import time_to_accuracy
from repro.metrics.throughput import (
    EMPTY_PERCENTILES,
    PercentileSummary,
    ThroughputSummary,
    TransferSummary,
    transfer_summary,
)
from repro.ps.messages import WorkerReport

__all__ = ["SCHEMA_VERSION", "Provenance", "RunResult", "json_safe", "json_restore"]

#: Version of the :meth:`RunResult.to_dict` layout; bump it with any change
#: that an older :meth:`RunResult.from_dict` could not read.
SCHEMA_VERSION = 1

_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def json_safe(value):
    """``value`` as strict JSON data: NumPy scalars unwrapped, tuples listed,
    non-finite floats as their marker string (the run record's and the tcp
    wire's one rule)."""
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [json_safe(item) for item in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def json_restore(value):
    """Inverse of :func:`json_safe` (a string equal to a marker is a float)."""
    if isinstance(value, dict):
        return {key: json_restore(item) for key, item in value.items()}
    if isinstance(value, list):
        return [json_restore(item) for item in value]
    if isinstance(value, str) and value in _NON_FINITE:
        return _NON_FINITE[value]
    return value


@dataclass(frozen=True)
class Provenance:
    """Where a result came from.

    When ``injected`` is empty the ``spec`` dict is enough to re-run the
    experiment exactly (``ExperimentSpec.from_dict`` + ``run_experiment``).
    A non-empty ``injected`` means the caller passed pre-built objects
    (e.g. the paradigm-comparison runner sharing one workload across runs);
    those are recorded by name only — such a spec is a description, not a
    replayable recipe, and attempting to replay it fails loudly on the
    unregistered workload name rather than silently running something else.
    """

    spec: dict
    backend: str
    seed: int
    repro_version: str
    git_revision: str
    injected: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Plain-data form."""
        return {**dataclasses.asdict(self), "injected": list(self.injected)}


@dataclass
class RunResult:
    """Everything one training run reports, whichever backend ran it.

    ``times``/``accuracies``/``losses`` are the evaluation curve.  The
    last three fields before ``backend`` are the simulator's own (empty
    elsewhere): ``iteration_time_percentiles`` of push-to-push intervals,
    the ``queue_trace`` of the topology's shared links and the
    ``push_trace`` of ``(time, worker, train loss)`` per applied push.
    """

    paradigm: str
    paradigm_label: str
    times: np.ndarray
    accuracies: np.ndarray
    losses: np.ndarray
    total_time: float
    total_updates: int
    throughput: ThroughputSummary
    staleness: StalenessSummary
    worker_reports: list[WorkerReport]
    #: The server's counters (policy, store, aggregation, pull replies and
    #: the transport's), one key set on every backend.
    server_statistics: dict
    errors: list[str] = field(default_factory=list)
    #: Structured fault/membership history: crashes, rejoins, corrupted-push
    #: injections, aggregator rejections — each a plain dict with at least
    #: ``kind`` and ``worker`` keys, in the order the server observed them.
    events: list = field(default_factory=list)
    #: Per-layer forward/backward timing breakdown of one worker's replica
    #: (``repro.utils.profiler``); None unless the run was profiled.
    profile: dict | None = None
    iteration_time_percentiles: PercentileSummary = EMPTY_PERCENTILES
    #: One dict per shared-link traversal: link, arrival, start, wait,
    #: nbytes, tag; empty when the topology has no shared links.
    queue_trace: list = field(default_factory=list)
    push_trace: list[tuple[float, str, float]] = field(default_factory=list)
    backend: str = ""
    provenance: Provenance | None = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.accuracies = np.asarray(self.accuracies, dtype=np.float64)
        self.losses = np.asarray(self.losses, dtype=np.float64)

    @classmethod
    def failed(cls, message: str) -> "RunResult":
        """The result of a run that produced nothing but ``message``."""
        return cls(
            paradigm="",
            paradigm_label="",
            times=(),
            accuracies=(),
            losses=(),
            total_time=0.0,
            total_updates=0,
            throughput=ThroughputSummary(0, 0.0, 0.0, 0.0),
            staleness=StalenessSummary.empty(),
            worker_reports=[],
            server_statistics={},
            errors=[message],
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def final_accuracy(self) -> float:
        """Accuracy of the last evaluation (0.0 when none ran)."""
        return float(self.accuracies[-1]) if self.accuracies.size else 0.0

    @property
    def best_accuracy(self) -> float:
        """Best accuracy over the run (0.0 when none ran)."""
        return float(self.accuracies.max()) if self.accuracies.size else 0.0

    @property
    def wait_time_per_worker(self) -> dict[str, float]:
        """Synchronization waiting time of each worker."""
        return {report.worker_id: report.total_wait_time for report in self.worker_reports}

    @property
    def total_wait_time(self) -> float:
        """Sum of all workers' synchronization waiting time."""
        return float(sum(self.wait_time_per_worker.values()))

    @property
    def iterations_per_worker(self) -> dict[str, int]:
        """Push iterations each worker performed."""
        return {report.worker_id: report.iterations for report in self.worker_reports}

    @property
    def transfers(self) -> TransferSummary:
        """Push/pull byte accounting summed over the worker reports."""
        return transfer_summary(self.worker_reports)

    def push_times(self, worker_id: str) -> np.ndarray:
        """Times of ``worker_id``'s applied pushes (from ``push_trace``)."""
        return np.array(
            [at for at, worker, _ in self.push_trace if worker == worker_id], dtype=np.float64
        )

    def time_to_accuracy(self, target: float) -> float | None:
        """Training time needed to reach ``target`` accuracy (None if never)."""
        return time_to_accuracy(self.times, self.accuracies, target)

    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(times, accuracies)`` pair, ready for plotting helpers."""
        return self.times, self.accuracies

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Strict-JSON rendering of the full result (derived values included)."""
        transfers, provenance = self.transfers, self.provenance
        return json_safe(
            {
                "schema_version": SCHEMA_VERSION,
                "backend": self.backend,
                "paradigm": self.paradigm,
                "paradigm_label": self.paradigm_label,
                "times": self.times,
                "accuracies": self.accuracies,
                "losses": self.losses,
                "total_time": float(self.total_time),
                "total_updates": int(self.total_updates),
                "final_accuracy": self.final_accuracy,
                "best_accuracy": self.best_accuracy,
                "throughput": dataclasses.asdict(self.throughput),
                "staleness": dataclasses.asdict(self.staleness),
                "wait_time_per_worker": self.wait_time_per_worker,
                "total_wait_time": self.total_wait_time,
                "worker_reports": [dataclasses.asdict(report) for report in self.worker_reports],
                "server_statistics": self.server_statistics,
                "transfers": {
                    **dataclasses.asdict(transfers),
                    "compression_ratio": float(transfers.compression_ratio),
                },
                "iteration_time_percentiles": self.iteration_time_percentiles.to_dict(),
                "queue_trace": self.queue_trace,
                "push_trace": self.push_trace,
                "provenance": None if provenance is None else provenance.to_dict(),
                "errors": self.errors,
                "events": self.events,
                "profile": self.profile,
            }
        )

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """The result :meth:`to_dict` rendered; derived keys are recomputed."""
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"run record schema_version {version!r} is not {SCHEMA_VERSION}; "
                "re-run the experiment with this version to read it"
            )
        data = json_restore(data)
        provenance = data["provenance"]
        if provenance is not None:
            provenance = Provenance(**{**provenance, "injected": tuple(provenance["injected"])})
        return cls(
            paradigm=data["paradigm"],
            paradigm_label=data["paradigm_label"],
            times=data["times"],
            accuracies=data["accuracies"],
            losses=data["losses"],
            total_time=data["total_time"],
            total_updates=data["total_updates"],
            throughput=ThroughputSummary(**data["throughput"]),
            staleness=StalenessSummary(**data["staleness"]),
            worker_reports=[WorkerReport(**report) for report in data["worker_reports"]],
            server_statistics=data["server_statistics"],
            errors=data["errors"],
            events=data["events"],
            profile=data["profile"],
            iteration_time_percentiles=PercentileSummary(**data["iteration_time_percentiles"]),
            queue_trace=data["queue_trace"],
            push_trace=[tuple(push) for push in data["push_trace"]],
            backend=data["backend"],
            provenance=provenance,
        )
