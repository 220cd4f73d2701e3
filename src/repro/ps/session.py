"""The step protocol, once: push → OK → pull under a pluggable clock policy.

A worker computes a gradient, pushes it, waits for the server's OK — the
synchronization policy (BSP, ASP, SSP, DSSP; :mod:`repro.core`) decides when
that goes out — and pulls the fresh weights.  This module holds that
protocol exactly once; the wall-clock runtimes (:mod:`repro.ps.runtime`,
:mod:`repro.ps.process_runtime`, :mod:`repro.ps.tcp_runtime`) only move
bytes and wake peers, and the simulator (:mod:`repro.simulation.trainer`)
drives the same :class:`ServerSession` under a virtual clock
(``docs/architecture.md`` has the walk-through).

* :class:`WorkerLoop` is the worker side, talking to the server through a
  :class:`Link` — the only thing a runtime implements for its workers.
* :class:`ServerSession` is the server side: the per-push sequence around
  one :class:`~repro.ps.server.ParameterServer`, what each OK carries
  (:meth:`ServerSession.reply`), membership changes and the end-of-run
  result.  Runtimes keep their select loops, pipes, sockets and
  wire formats and call into it.
* :class:`TrainingPlan` describes a run; the runtimes' plan classes extend
  it with their own fields, and the ``build_*`` functions and
  :func:`assemble` are the one recipe turning a plan into server, evaluator
  and worker replicas.

Nothing here knows which runtime is calling: a push without a sequence
number simply skips dedupe, a link that never answers :class:`Resume` never
triggers a rebuild.
"""

from __future__ import annotations

import os
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Protocol

import numpy as np

from repro.core.factory import make_policy, validate_paradigm
from repro.data.loader import MiniBatchLoader
from repro.data.partitioner import partition_indices
from repro.metrics.accuracy import evaluate_model
from repro.nn.losses import SoftmaxCrossEntropy
from repro.optim.schedules import ConstantSchedule
from repro.optim.sgd import SGD
from repro.ps.aggregation import make_aggregator, validate_aggregation_spec
from repro.ps.compression import make_codec, validate_codec_spec
from repro.ps.faults import FaultInjector, FaultPlan, parse_fault_specs
from repro.ps.messages import PullReply, PushRequest, WorkerReport
from repro.ps.server import AppliedPush, ParameterServer, PushResponse, decode_push
from repro.ps.sharding import make_store
from repro.ps.worker import GradientComputation, Worker
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

__all__ = [
    "TrainingPlan",
    "WorkloadPlan",
    "TrainingResult",
    "Resume",
    "Link",
    "WorkerLoop",
    "Step",
    "replica_step",
    "Tally",
    "ServerSession",
    "Ok",
    "LogEntry",
    "UpdateLog",
    "Mirror",
    "plan_codec",
    "replica_builder",
    "build_optimizer",
    "build_server",
    "build_evaluator",
    "assemble",
]

_LOGGER = get_logger("ps.session")


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class TrainingPlan:
    """What every backend needs to know about one training run.

    Plain data, validated at construction so a typo fails before any
    process, thread or socket exists.  The runtimes' own plan classes
    (:class:`~repro.ps.coordinator.DistributedTrainingConfig` for the
    threaded trainer, :class:`~repro.ps.process_runtime.ProcessTrainingPlan`,
    :class:`~repro.ps.tcp_runtime.TcpTrainingPlan`) extend it with only the
    fields that are genuinely theirs; a run is driven through
    :func:`repro.api.run_experiment`, which builds the right one.

    Attributes
    ----------
    paradigm, paradigm_kwargs:
        ``"bsp"``, ``"asp"``, ``"ssp"`` or ``"dssp"`` and its parameters
        (e.g. ``{"staleness": 3}`` for SSP, ``{"s_lower": 3, "s_upper": 15}``
        for DSSP).
    num_workers, iterations_per_worker, batch_size:
        Run shape; every worker performs the same number of push iterations
        (the invariant that keeps BSP rounds deadlock-free).
    micro_batches:
        Mini-batches aggregated per push (models multi-GPU workers).
    learning_rate, momentum, weight_decay:
        Server-side SGD hyper-parameters.
    slowdowns:
        Per-worker artificial seconds of sleep per iteration, keyed by
        worker id (``"worker-0"``, ...), to emulate heterogeneity.
    evaluate_every_pushes:
        Evaluate the global model whenever the store version has advanced
        by N since the last evaluation — every N pushes under an
        immediate-apply server (0 disables the periodic evaluations; the
        initial and final model are always evaluated when a test set
        exists).
    dtype:
        Element dtype of the server-held weights, ``"float64"`` (default)
        or ``"float32"`` (halves push/pull payloads; what the paper's MXNet
        setup uses).
    compression:
        Optional push codec spec (e.g. ``"topk:0.01"``, ``"fp16"``; see
        :mod:`repro.ps.compression`).  Each worker gets its own codec
        instance (error-feedback residuals are per worker) and the server
        decodes the payload back into the fused flat update path.  ``None``
        and the identity ``"none"`` codec both take the uncoded path.
    aggregation:
        Optional robust-aggregation spec (e.g. ``"trimmed_mean:1"``,
        ``"median"``; see :mod:`repro.ps.aggregation`).  ``None`` and
        ``"mean"`` keep the immediate-apply fast path; any other
        aggregator buffers a window of pushes server-side and applies
        their robust combination at once.
    faults:
        Optional fault plan (see :mod:`repro.ps.faults`): per-worker
        crash / byzantine / corrupt / flaky entries injected into the run.
    seed:
        Master seed of every :class:`~repro.utils.rng.RngStream` in the
        run (data order, weight initialization, codec rounding, faults).
    wait_timeout:
        Safety timeout (seconds) for any blocking wait — OKs, start
        barriers, server-side idle polls — after which the run aborts with
        an error instead of hanging.  Workers stretch it by four times
        their own compute time and the server by four times the push
        intervals it observes, so a heavy model is not mistaken for a hang.
    """

    paradigm: str = "dssp"
    paradigm_kwargs: dict = field(default_factory=lambda: {"s_lower": 3, "s_upper": 15})
    num_workers: int = 4
    iterations_per_worker: int = 20
    batch_size: int = 32
    micro_batches: int = 1
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    slowdowns: Mapping[str, float] = field(default_factory=dict)
    evaluate_every_pushes: int = 0
    dtype: str = "float64"
    compression: str | None = None
    aggregation: str | None = None
    faults: tuple = ()
    seed: int = 0
    wait_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.compression is not None:
            validate_codec_spec(self.compression)
        if self.aggregation is not None:
            validate_aggregation_spec(self.aggregation)
        for name in ("num_workers", "iterations_per_worker", "batch_size", "micro_batches"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.evaluate_every_pushes < 0:
            raise ValueError("evaluate_every_pushes must be non-negative")
        if self.wait_timeout <= 0:
            raise ValueError("wait_timeout must be positive")
        # Fail fast on paradigm typos instead of erroring mid-run.
        validate_paradigm(self.paradigm, self.paradigm_kwargs)
        # A slowdown keyed on a nonexistent worker is a silent typo: the run
        # would proceed with the slowdown ignored.  Reject it here.
        self._reject_unknown_workers("slowdowns", self.slowdowns)
        negative = sorted(w for w, seconds in self.slowdowns.items() if seconds < 0)
        if negative:
            raise ValueError(f"slowdowns must be non-negative (got {negative})")
        object.__setattr__(self, "faults", tuple(self.faults))
        parse_fault_specs(self.faults, self.worker_ids)

    @property
    def worker_ids(self) -> list[str]:
        """The expected membership, ``worker-0`` … ``worker-(n-1)``."""
        return [f"worker-{index}" for index in range(self.num_workers)]

    def _reject_unknown_workers(self, what: str, keys) -> None:
        unknown = sorted(set(keys) - set(self.worker_ids))
        if unknown:
            raise ValueError(
                f"{what} name nonexistent workers {unknown}; "
                f"valid ids: {self.worker_ids}"
            )


@dataclass(frozen=True, kw_only=True)
class WorkloadPlan(TrainingPlan):
    """A picklable plan whose processes build the workload from the registry.

    Carries plain data only — workload *name* plus the resolved scale's
    fields rather than built objects — because worker and server processes
    build everything locally from it (mandatory under the ``spawn`` start
    method; a ``fork`` child inherits its coordinator's build).

    Attributes
    ----------
    workload, workload_kwargs, scale_fields:
        Registry name, extra builder arguments and the resolved
        :class:`~repro.experiments.config.ExperimentScale` as a field dict.
    profile:
        Worker 0 attaches a per-layer profiler
        (:class:`repro.utils.profiler.LayerProfiler`) and ships the timing
        breakdown with its final report; it lands in
        :attr:`TrainingResult.profile`.
    net_faults:
        Optional network-chaos entries (:mod:`repro.ps.netfaults`); which
        kinds a runtime accepts is its own validation.
    crash_at:
        Test-only fault injection: ``{worker_id: iteration}`` makes that
        worker die with ``os._exit(1)`` (no cleanup, as a real crash would)
        at the start of that iteration.
    crash_after_push:
        Test-only fault injection: ``{worker_id: iteration}`` makes that
        worker die immediately *after sending* that iteration's push —
        mid-protocol, while the server still owes it an OK.  Exercises the
        death-during-push window the runtimes' EOF handling must cover.
    """

    workload: str
    scale_fields: dict
    workload_kwargs: dict = field(default_factory=dict)
    profile: bool = False
    net_faults: tuple = ()
    crash_at: Mapping[str, int] = field(default_factory=dict)
    crash_after_push: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "net_faults", tuple(dict(entry) for entry in self.net_faults)
        )
        self._reject_unknown_workers(
            "crash_at/crash_after_push", {*self.crash_at, *self.crash_after_push}
        )

    def build_workload(self):
        """The calling process's build of the workload (registry + scale).

        Imported lazily: :mod:`repro.experiments` sits above :mod:`repro.ps`
        in the layering, so the runtimes touch it only at run time.
        """
        from repro.experiments.config import ExperimentScale
        from repro.experiments.workloads import build_workload

        scale = ExperimentScale(**self.scale_fields)
        return build_workload(self.workload, scale, **self.workload_kwargs)


@dataclass
class TrainingResult:
    """Everything a wall-clock runtime reports at the end of a run."""

    wall_time: float
    worker_reports: list[WorkerReport]
    server_statistics: dict
    evaluation_times: list[float] = field(default_factory=list)
    evaluation_accuracies: list[float] = field(default_factory=list)
    evaluation_losses: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Structured fault/membership events (crashes, rejoins, corrupted
    #: pushes, aggregator rejections) in server observation order.
    events: list = field(default_factory=list)
    #: Per-layer forward/backward timing breakdown of one worker's replica
    #: (see repro.utils.profiler); None unless profiling was requested.
    profile: dict | None = None

    @classmethod
    def failed(cls, message: str) -> "TrainingResult":
        """The result of a run that produced nothing but ``message``."""
        return cls(wall_time=0.0, worker_reports=[], server_statistics={}, errors=[message])

    @property
    def final_accuracy(self) -> float:
        """Accuracy of the last evaluation (0.0 when none ran)."""
        return self.evaluation_accuracies[-1] if self.evaluation_accuracies else 0.0

    @property
    def best_accuracy(self) -> float:
        """Best accuracy over all evaluations (0.0 when none ran)."""
        return max(self.evaluation_accuracies, default=0.0)


# ----------------------------------------------------------------------
# Building the pieces from a plan
# ----------------------------------------------------------------------
def plan_codec(plan: TrainingPlan):
    """The plan's push codec instance, or ``None`` for uncoded pushes.

    ``compression=None`` and the identity ``"none"`` codec both resolve to
    ``None``: the dense packed buffers already ship exactly the bytes the
    ``none`` codec would frame, so skipping the framing keeps that path
    bit-for-bit and zero-overhead.
    """
    if plan.compression is None:
        return None
    codec = make_codec(plan.compression)
    return None if codec.name == "none" else codec


def replica_builder(plan: TrainingPlan, workload) -> Callable[..., Worker]:
    """The recipe for this run's worker replicas: ``build(index, layouts)``.

    ``workload`` needs ``model_builder`` and ``train_dataset``.  Stream
    names, partitioning, loader construction and the initial-weight
    overwrite from the global model live here only, which is what makes one
    plan train the same model on every runtime.  A builder draws from one
    :class:`~repro.utils.rng.RngStream`, so call it once per index; a
    *rebuild* of the same replica (a worker resuming at another clock) needs
    a fresh builder and is then byte-identical to the original build.
    ``build(index)`` copies out only its own partition of the training set.

    ``layouts`` (the store's ``flat_layouts``) repacks the replica to mirror
    the server's buffers; ``gradient_buffers`` optionally supplies the
    per-shard gradient storage (see
    :meth:`~repro.ps.worker.Worker.attach_flat_layout`).
    """
    streams = RngStream(plan.seed)
    global_model = workload.model_builder(streams.get("init"))
    partitions = partition_indices(
        len(workload.train_dataset), plan.num_workers, rng=streams.get("partition")
    )

    def build(index: int, layouts=None, gradient_buffers=None) -> Worker:
        worker_id = f"worker-{index}"  # stream names are keyed by worker id
        loader = MiniBatchLoader(
            workload.train_dataset.subset(partitions[index]),
            batch_size=plan.batch_size,
            rng=streams.get(f"loader-{worker_id}"),
        )
        replica = workload.model_builder(streams.get(f"model-{worker_id}"))
        replica.load_state_dict(global_model.state_dict())
        worker = Worker(
            worker_id=worker_id,
            model=replica,
            loader=loader,
            loss_fn=SoftmaxCrossEntropy(),
            micro_batches=plan.micro_batches,
        )
        codec = plan_codec(plan)
        if codec is not None:
            # One codec per worker: error-feedback residuals are worker
            # state.  The deterministic per-worker stream keeps stochastic
            # codecs (int8 rounding) reproducible across runtimes.
            codec.reseed(streams.get(f"codec-{worker_id}"))
            worker.set_codec(codec)
        if layouts:
            worker.attach_flat_layout(layouts, gradient_buffers=gradient_buffers)
        return worker

    return build


def build_optimizer(plan: TrainingPlan) -> SGD:
    """The plan's update rule — the server's, and every worker mirror's."""
    return SGD(
        learning_rate=plan.learning_rate,
        momentum=plan.momentum,
        weight_decay=plan.weight_decay,
    )


def build_server(plan: TrainingPlan, store, schedule=None) -> ParameterServer:
    """The plan's :class:`ParameterServer` over ``store`` (no workers yet).

    ``schedule`` replaces the constant learning rate for a caller that
    reports training progress (``server.set_progress``).
    """
    fault_plan = parse_fault_specs(plan.faults, plan.worker_ids)
    return ParameterServer(
        store=store,
        optimizer=build_optimizer(plan),
        policy=make_policy(plan.paradigm, **plan.paradigm_kwargs),
        learning_rate_schedule=schedule or ConstantSchedule(plan.learning_rate),
        aggregator=(
            make_aggregator(plan.aggregation) if plan.aggregation is not None else None
        ),
        fault_injector=(
            FaultInjector(fault_plan, RngStream(plan.seed)) if fault_plan else None
        ),
    )


def build_evaluator(plan: TrainingPlan, workload):
    """``state → (accuracy, loss)`` on the workload's test set, or ``None``.

    The evaluation model copies the state into its own arrays, so callers
    may pass zero-copy views.
    """
    if workload.test_dataset is None:
        return None
    eval_model = workload.model_builder(RngStream(plan.seed).get("eval"))

    def evaluate_fn(state: Mapping[str, np.ndarray]) -> tuple[float, float]:
        eval_model.load_state_dict(dict(state))
        return evaluate_model(
            eval_model, workload.test_dataset, batch_size=max(plan.batch_size, 64)
        )

    return evaluate_fn


def assemble(plan: TrainingPlan, workload, *, num_shards=1, shard_strategy="size", schedule=None):
    """An in-process run's pieces: ``(server, workers, evaluate_fn)``.

    Global model → store → server → one registered replica per expected
    worker, all starting from the global initial weights as in the paper.
    The replicas are not packed yet: the caller attaches the store's layout.
    """
    global_model = workload.model_builder(RngStream(plan.seed).get("init"))
    store = make_store(
        initial_weights={name: p.data for name, p in global_model.named_parameters()},
        initial_buffers=global_model.buffers(),
        num_shards=num_shards,
        strategy=shard_strategy,
        dtype=plan.dtype,
    )
    server = build_server(plan, store, schedule)
    build = replica_builder(plan, workload)
    workers = []
    for index, worker_id in enumerate(plan.worker_ids):
        server.register_worker(worker_id)
        workers.append(build(index))
    return server, workers, build_evaluator(plan, workload)


# ----------------------------------------------------------------------
# Update-log pulls
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LogEntry:
    """One applied push: everything a :class:`Mirror` needs to repeat it."""

    version: int
    learning_rate: float
    scale: float
    frames: tuple
    #: Who pushed it, and that push's ``seq`` (``None``: not numbered).
    worker_id: str | None = None
    seq: int | None = None

    @property
    def nbytes(self) -> int:
        """Payload bytes of the encoded frames."""
        return sum(frame.nbytes for frame in self.frames)

    def frames_for(self, worker_id: str) -> tuple:
        """The frames an OK to ``worker_id`` carries: none for its own
        numbered push — it still holds them, the OK names the ``seq``."""
        own = self.seq is not None and self.worker_id == worker_id
        return () if own else self.frames


class UpdateLog:
    """The encoded pushes behind the store's most recent versions.

    The store at version ``v`` is a function of the ordered pushes, so a
    worker at ``b`` that mirrors the update rule (:class:`Mirror`) needs
    only the pushes of ``(b, v]``.  They are kept while they total fewer
    than ``budget`` bytes (the dense weights — beyond that a dense reply is
    cheaper); ``floor`` is the lowest base still served, ``reason`` why.
    Each entry also records who pushed it (worker id and ``seq``), so an OK
    can leave out the frames its recipient sent; ``nbytes``, eviction and
    the budget count the bytes *stored*, not the fewer bytes sent.
    """

    def __init__(self, version: int, budget: int) -> None:
        self.budget = budget
        self.floor = self.tip = version
        self.reason = "gap"  # nothing was recorded before the log began
        self.entries: deque[LogEntry] = deque()
        self.nbytes = 0

    def record(
        self, version: int, learning_rate: float, scale: float, frames,
        worker_id: str | None = None, seq: int | None = None,
    ) -> None:
        """Log the push that produced ``version``.  ``frames=None`` marks an
        *opaque* update (what was applied is not what the frames decode to),
        and so does a push over half the budget or a version the log did not
        see coming: nothing before it replays, so the log restarts there."""
        tip, self.tip = self.tip, version
        nbytes = sum(frame.nbytes for frame in frames or ())
        if frames is None or version != tip + 1 or 2 * nbytes > self.budget:
            self.entries.clear()
            self.nbytes = 0
            self.floor, self.reason = version, "opaque"
            return
        # Copies: the frames alias the sender's receive buffer.
        kept = tuple(
            replace(frame, arrays=tuple(array.copy() for array in frame.arrays))
            for frame in frames
        )
        self.entries.append(LogEntry(version, learning_rate, scale, kept, worker_id, seq))
        self.nbytes += nbytes
        while self.nbytes >= self.budget:
            evicted = self.entries.popleft()
            self.nbytes -= evicted.nbytes
            self.floor, self.reason = evicted.version, "bytes"

    def since(self, base: int, version: int) -> tuple[list[LogEntry] | None, str | None]:
        """``(entries of (base, version], None)``, or ``(None, why not)``."""
        if version != self.tip:  # the store moved without a push (a flush)
            return None, "opaque"
        if base < self.floor:
            return None, self.reason
        return [entry for entry in self.entries if entry.version > base], None


class Mirror:
    """A worker's copy of the server's one-shard store *and* update rule.

    Built from a dense reply; a log reply goes through :meth:`replay` — the
    ``apply_gradients`` + ``step_flat`` code the server ran, in the same
    order — which leaves the weights bit-identical to the dense pull it
    replaces.  Costs one more copy of the weights, a velocity buffer and —
    only where a frame has to be densified — a decode scratch.
    """

    def __init__(self, optimizer: SGD, layout, flat_weights, version: int, velocity=None):
        """Adopt the server's packed weights and optimizer state at ``version``.

        ``optimizer`` must be built as the server's was
        (:func:`build_optimizer`), ``layout`` is the server's packed layout.
        """

        def named(flat: np.ndarray) -> dict[str, np.ndarray]:
            return {s.name: flat[s.lo : s.hi].reshape(s.shape) for s in layout}

        self.optimizer = optimizer
        self.store = make_store(named(flat_weights), dtype=flat_weights.dtype)
        if self.store.flat_layouts[0][1] != tuple(layout):
            raise RuntimeError("the mirror packs a different layout than the server")
        self.store.restore_version(version)
        if velocity is not None:
            optimizer.load_state_dict({**optimizer.state_dict(), "velocity": named(velocity)})
        self._scratch: dict[int, np.ndarray] = {}

    def replay(self, entries, version: int) -> PullReply:
        """Apply the logged pushes up to ``version``; the reply a pull would give.

        Only the entry that continues the mirror's version is ever applied
        (older ones already are); falling short of ``version`` raises —
        never train on the wrong weights.
        """
        store, optimizer = self.store, self.optimizer
        skipped = None
        for entry in entries:
            if entry.version == store.version + 1:
                optimizer.learning_rate = entry.learning_rate
                gradients = decode_push(entry.frames, self._scratch, optimizer.sparse_runs)
                store.apply_gradients({}, optimizer, entry.scale, gradients)
            elif entry.version > store.version:
                skipped = entry.version
                break
        if store.version < version:
            raise RuntimeError(
                f"update log has a version gap: mirror at {store.version}, reply at {version}, "
                + (f"the next entry is version {skipped}" if skipped else "no entry left")
            )
        return store.pull()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Step:
    """One replica iteration, ready to push: ``flat`` is the replica's packed
    gradient storage on an uncoded push, else ``encoded`` carries frames."""

    computation: GradientComputation
    flat: Mapping[int, np.ndarray] | None
    encoded: tuple | None
    codec: str | None


def replica_step(worker: Worker) -> Step:
    """Compute ``worker``'s next gradient from the weights it holds, and encode it.

    Touches only state the replica owns (weights, loader, RNG, codec
    residual): the simulator runs it ahead, in helpers (``simulation.pool``).
    """
    computation = worker.compute_gradients()
    return Step(computation, *worker.prepare_push(computation))


class Tally:
    """A worker's report, counted from the steps whose pushes it sent."""

    def __init__(self) -> None:
        self.iterations = self.samples = self.wire_bytes = self.raw_bytes = 0
        self.loss = 0.0

    def add(self, step: Step) -> None:
        computation = step.computation
        dense = computation.flat_gradients or computation.gradients
        raw = sum(np.asarray(gradient).nbytes for gradient in dense.values())
        self.iterations += 1
        self.samples += computation.samples
        self.loss += computation.loss
        self.raw_bytes += raw
        self.wire_bytes += raw if step.encoded is None else sum(p.nbytes for p in step.encoded)

    def report(self, worker_id: str, *, wait: float, compute: float, pulled: int) -> dict:
        """The :class:`~repro.ps.messages.WorkerReport` fields, as a dict."""
        return {
            "worker_id": worker_id,
            "iterations": self.iterations,
            "samples_processed": self.samples,
            "total_wait_time": wait,
            "total_compute_time": compute,
            "mean_loss": self.loss / self.iterations if self.iterations else float("nan"),
            "pushed_wire_bytes": self.wire_bytes,
            "pushed_raw_bytes": self.raw_bytes,
            "pulled_bytes": pulled,
        }


@dataclass(frozen=True)
class Resume:
    """Where the server wants a worker to (re)start.

    The answer to the initial pull, and to a push whose connection was
    redialled or whose server restarted: continue at ``clock`` from the
    weights in ``reply`` (and the codec error-feedback residuals in
    ``codec_state``, when the server checkpointed them).
    """

    clock: int
    reply: PullReply
    codec_state: Mapping[str, np.ndarray] | None = None


class Link(Protocol):
    """A worker's connection to the server — all a runtime implements.

    ``layouts`` and ``gradient_buffers`` (valid after :meth:`open`) are what
    :func:`replica_builder` needs to pack a replica for this server.
    """

    layouts: tuple | None
    gradient_buffers: Mapping[int, np.ndarray] | None

    def open(self) -> Resume | None:
        """Connect and pull the initial weights; ``None`` if the run is over."""

    def ready(self, worker: Worker) -> bool:
        """``worker`` is loaded: wait at the start line.  False = run is over."""

    def push(self, header: dict, computation: GradientComputation, flat, encoded) -> bool:
        """Ship one push.  False when the link left the run instead."""

    def await_ok(self, timeout: float) -> PullReply | Resume | None:
        """Block until released: the pulled reply, a resume point, or ``None`` (abort)."""

    def leave(self, clock: int, rejoin_after: int | None = None) -> Resume | None:
        """Drop out as an injected crash; a link that can rejoin returns where."""

    def done(self, report: dict, profile: dict | None) -> None:
        """Hand the final report to the server."""

    def error(self, message: str) -> None:
        """Report a failure of this worker; must not raise."""


class WorkerLoop:
    """The worker side of the step protocol, over a :class:`Link`."""

    def __init__(
        self,
        worker_id: str,
        link: Link,
        *,
        iterations: int,
        wait_timeout: float,
        worker: Worker | None = None,
        build: Callable[[], Worker] | None = None,
        slowdown: float = 0.0,
        fault_plan: FaultPlan | None = None,
        profile: bool = False,
        exit_at: int | None = None,
        exit_after_push: int | None = None,
    ) -> None:
        """Create the loop around a ready ``worker`` or a ``build`` recipe.

        ``build`` is called after ``link.open()`` — and again whenever the
        server resumes this worker at a clock its data stream is not at.
        ``fault_plan`` contributes this worker's injected crash (with its
        optional rejoin delay) and flaky slow phases; ``exit_at`` /
        ``exit_after_push`` are the hard ``os._exit`` test hooks.
        """
        if worker is None and build is None:
            raise ValueError("WorkerLoop needs a worker or a build recipe")
        self.worker_id = worker_id
        self.link = link
        self.worker = worker
        self.iterations = int(iterations)
        self.wait_timeout = float(wait_timeout)
        self.slowdown = float(slowdown)
        self.completed = 0
        self._build = build
        self._drawn = 0
        self._tally = Tally()  # of the current replica: a rebuild starts afresh
        self._profile = profile
        self._profiler = None
        self._exit_at = exit_at
        self._exit_after_push = exit_after_push
        self._crash_clock = self._rejoin_after = self._flaky = None
        if fault_plan:
            self._crash_clock = fault_plan.crash_at().get(worker_id)
            self._rejoin_after = fault_plan.rejoin_after().get(worker_id)
            self._flaky = fault_plan.flaky_for(worker_id)

    @classmethod
    def from_plan(cls, plan: WorkloadPlan, index: int, link: Link) -> "WorkerLoop":
        """The loop of ``worker-<index>``, its replica rebuilt from the plan."""
        worker_id = f"worker-{index}"

        def build() -> Worker:
            return replica_builder(plan, plan.build_workload())(
                index, link.layouts, link.gradient_buffers
            )

        return cls(
            worker_id,
            link,
            iterations=plan.iterations_per_worker,
            wait_timeout=plan.wait_timeout,
            build=build,
            slowdown=plan.slowdowns.get(worker_id, 0.0),
            fault_plan=parse_fault_specs(plan.faults, plan.worker_ids),
            profile=plan.profile and index == 0,
            exit_at=plan.crash_at.get(worker_id),
            exit_after_push=plan.crash_after_push.get(worker_id),
        )

    def run(self) -> dict | None:
        """Train to the iteration budget; the report, or ``None`` without one.

        Never raises: a failure is reported through ``link.error``.
        """
        try:
            return self._run()
        except Exception as error:  # noqa: BLE001 - report, never hang the run
            _LOGGER.exception("worker %s failed", self.worker_id)
            self.link.error(str(error))
            return None

    def _enter(self, resume: Resume | None) -> bool:
        """(Re)start at ``resume``: right replica, right batch, fresh weights."""
        if resume is None:
            return False
        if self.worker is None or resume.clock != self._drawn:
            # The server wants us at a clock our stateful data stream is not
            # at: (re)build deterministically and fast-forward, so the
            # iterations from here replay the exact batches an uninterrupted
            # run would have drawn.
            if self._build is None:
                raise RuntimeError(
                    f"{self.worker_id}: resumed at clock {resume.clock} after "
                    f"{self._drawn} iterations, and no recipe to rebuild from"
                )
            if self._profiler is not None:
                self._profiler.detach()
                self._profiler = None
            self._profile = self._profile and self.worker is None
            self.worker = self._build()
            self.worker.loader.skip(resume.clock * self.worker.micro_batches)
            self._drawn = resume.clock
            self._tally = Tally()
        if self._profile and self._profiler is None:
            from repro.utils.profiler import LayerProfiler

            self._profiler = LayerProfiler(
                self.worker.model, loss_fn=self.worker.loss_fn
            ).attach()
        if resume.codec_state and self.worker.codec is not None:
            self.worker.codec.load_state_dict(dict(resume.codec_state))
        self.worker.load_reply(resume.reply)
        self.completed = resume.clock
        return self.link.ready(self.worker)

    def _run(self) -> dict | None:
        link = self.link
        if not self._enter(link.open()):
            return None
        start = time.monotonic()
        total_wait = 0.0
        total_compute = 0.0
        while self.completed < self.iterations:
            clock = self.completed
            if self._exit_at is not None and clock >= self._exit_at:
                os._exit(1)  # test hook: die like a real crash, no cleanup
            if self._crash_clock is not None and clock >= self._crash_clock:
                # Injected crash (fires once): the link announces or enacts
                # the death; an elastic one says where to rejoin.
                self._crash_clock = None
                if not self._enter(link.leave(clock, self._rejoin_after)):
                    return None
                continue
            compute_start = time.monotonic()
            step = replica_step(self.worker)
            self._tally.add(step)
            self._drawn += 1
            if self.slowdown > 0:
                time.sleep(self.slowdown)
            if self._flaky is not None and self._flaky.slow(clock):
                time.sleep(self._flaky.delay)
            compute_elapsed = time.monotonic() - compute_start
            total_compute += compute_elapsed

            computation = step.computation
            header = {
                # Sequence number = iteration index: a server that keeps
                # per-worker watermarks applies a retransmission once.
                "seq": clock,
                "base_version": computation.base_version,
                "timestamp": time.monotonic() - start,
                "loss": computation.loss,
                "samples": computation.samples,
                "codec": step.codec,
            }
            if not link.push(header, computation, step.flat, step.encoded):
                return None
            if self._exit_after_push is not None and clock >= self._exit_after_push:
                os._exit(1)  # test hook: die mid-protocol, push sent but no OK taken

            # Peers run the same per-iteration workload, so this worker's
            # own compute time (slowdown included) bounds how long a healthy
            # OK can take: stretch the guard rather than mistake a heavy
            # iteration for a hang.
            wait_start = time.monotonic()
            outcome = link.await_ok(self.wait_timeout + 4.0 * compute_elapsed)
            if isinstance(outcome, Resume):
                if not self._enter(outcome):
                    return None
                continue
            if outcome is None:
                return None
            total_wait += time.monotonic() - wait_start
            self.worker.load_reply(outcome)
            self.completed += 1

        profile = None
        if self._profiler is not None:
            self._profiler.detach()
            profile = {"worker_id": self.worker_id, **self._profiler.as_dict()}
        report = self._tally.report(
            self.worker_id, wait=total_wait, compute=total_compute, pulled=self.worker.pulled_bytes
        )
        link.done(report, profile)
        return report


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Ok:
    """What one OK carries, as :meth:`ServerSession.reply` built it.

    ``kind`` is ``"log"`` (``entries``, replayed through the worker's
    :class:`Mirror`), ``"delta"`` or ``"dense"`` (``pull``, a store reply
    whose copy-on-write leases must be released once it is copied out).
    """

    kind: str
    version: int
    pull: PullReply | None = None
    entries: list[LogEntry] | None = None
    #: A dense welcome that (re)builds the worker's mirror, and the packed
    #: optimizer state it needs (``None`` while the optimizer has none).
    mirrored: bool = False
    velocity: np.ndarray | None = None
    #: Why a dense reply is not a log or a delta.
    reason: str | None = None


class ServerSession:
    """The server side of the step protocol around one :class:`ParameterServer`.

    Single-threaded by contract: the process and tcp runtimes call it from
    their one server loop, the threaded runtime under its server lock
    (except :meth:`apply`, which is as thread-safe as the store).
    """

    def __init__(
        self,
        server: ParameterServer,
        worker_ids,
        *,
        evaluate_fn=None,
        evaluate_every_pushes: int = 0,
        wait_timeout: float = 120.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Wrap ``server``; ``worker_ids`` is the expected membership.

        ``evaluate_fn`` maps a full state to ``(accuracy, loss)``;
        ``clock`` is the run's time source (the simulator's is virtual).
        """
        self.server = server
        self.worker_ids = list(worker_ids)
        self.evaluate_fn = evaluate_fn
        self.evaluate_every_pushes = int(evaluate_every_pushes)
        self.wait_timeout = float(wait_timeout)
        #: "No push for this long" means the run hung.  Adapts to the
        #: workload: a heavy model legitimately goes quiet for a whole
        #: iteration, so observed push intervals stretch it.
        self.idle_timeout = self.wait_timeout
        injector = server.fault_injector
        #: One chronological event log: the fault injector's records and
        #: everything the runtime or the workers report land in this list.
        self.events: list[dict] = injector.events if injector is not None else []
        #: Highest sequence number applied per worker (exactly-once pushes).
        self.watermarks: dict[str, int] = {}
        #: Every worker that ever joined, expected or not.
        self.joined: set[str] = set()
        self.reports: dict[str, WorkerReport] = {}
        self.errors: list[str] = []
        self.profile: dict | None = None
        self.evaluation_times: list[float] = []
        self.evaluation_accuracies: list[float] = []
        self.evaluation_losses: list[float] = []
        self._clock = clock
        #: ``(at, store version)`` of the last recorded evaluation.
        self._evaluated: tuple[float | None, int] = (None, server.store.version)
        self._last_push_time: dict[str, float] = {}
        self._start: float | None = None
        #: Set by a runtime whose links hold a :class:`Mirror` (one-shard
        #: store); ``None``: no OK is a log reply.
        self.update_log: UpdateLog | None = None
        #: How OKs were answered (:meth:`reply`), and the payload bytes of
        #: each kind; ``delta`` keys appear with the first delta.
        self.pull_replies = Counter(log=0, dense=0, log_bytes=0, dense_bytes=0)
        self._mirrored: set[str] = set()
        self._bases: dict[str, int] = {}

    @classmethod
    def from_plan(cls, plan: TrainingPlan, store, workload) -> "ServerSession":
        """The session a plan describes, over an already-built ``store``."""
        return cls(
            build_server(plan, store),
            plan.worker_ids,
            evaluate_fn=build_evaluator(plan, workload),
            evaluate_every_pushes=plan.evaluate_every_pushes,
            wait_timeout=plan.wait_timeout,
        )

    # -- lifecycle -----------------------------------------------------
    def join(self, worker_id: str, clock: int = 0) -> None:
        """Register ``worker_id`` with the policy at ``clock``."""
        self.server.register_worker(worker_id, clock)
        self.joined.add(worker_id)

    def start(self) -> None:
        """The start line: run time counts from here."""
        self._start = self._clock()

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        return self._clock() - self._start if self._start is not None else 0.0

    def evaluate(self, at: float) -> None:
        """Evaluate the global model and record it at run time ``at``.

        A no-op for the ``(at, version)`` it last recorded: a run that ends
        at the instant of its last periodic evaluation adds no second point.
        """
        point = (at, self.server.store.version)
        if self.evaluate_fn is None or point == self._evaluated:
            return
        self._evaluated = point
        # State views: the evaluation model copies them into its own arrays,
        # and copy-on-write keeps them stable meanwhile.
        accuracy, loss = self.evaluate_fn(self.server.store.state_views())
        self.evaluation_times.append(at)
        self.evaluation_accuracies.append(accuracy)
        self.evaluation_losses.append(loss)

    # -- the per-push sequence -----------------------------------------
    def apply(
        self,
        worker_id: str,
        header: Mapping,
        *,
        named=None,
        flat=None,
        encoded=None,
        buffers=None,
    ) -> tuple[PushRequest, AppliedPush | None]:
        """Storage half of a push; ``None`` applied marks a retransmission.

        ``header`` carries ``base_version``, ``timestamp`` and optionally
        ``loss``, ``codec`` and ``seq``; the gradient travels as exactly one
        of per-name arrays, per-shard packed buffers or encoded frames.
        Safe outside the session's serialization when the store applies
        under its own locks (``store.supports_concurrent_apply``).
        """
        seq = header.get("seq")
        request = PushRequest(
            worker_id=worker_id,
            gradients=named or {},
            base_version=int(header["base_version"]),
            timestamp=float(header["timestamp"]),
            buffers=buffers or {},
            local_loss=header.get("loss"),
            flat_gradients=flat,
            encoded_gradients=encoded,
            codec=header.get("codec"),
            seq=None if seq is None else int(seq),
        )
        self._bases[worker_id] = request.base_version
        watermark = self.watermarks.get(worker_id)
        if request.seq is not None and watermark is not None and request.seq <= watermark:
            return request, None
        server, log = self.server, self.update_log
        if log is None:
            return request, server.apply_push(request)
        learning_rate, scale = server.optimizer.learning_rate, server.gradient_scale()
        applied = server.apply_push(request)
        frames = request.encoded_gradients if applied.verbatim else None
        log.record(server.store.version, learning_rate, scale, frames, worker_id, request.seq)
        return request, applied

    def push(self, worker_id: str, header: Mapping, *, staged=None, **gradients) -> PushResponse:
        """One push, start to finish; ``response.to_release`` gets the OKs.

        ``staged`` is the result of an earlier :meth:`apply` for this push.
        """
        request, applied = staged or self.apply(worker_id, header, **gradients)
        if applied is None:
            # Exactly-once: a retransmission of a push this server already
            # owns (the worker never saw its OK, or replayed after a
            # reconnect).  Advance the policy clock — the worker's progress
            # is real — but leave weights, optimizer and staleness untouched.
            response = self.server.acknowledge_duplicate(request)
            self.events.append(
                {
                    "kind": "duplicate_push",
                    "worker": worker_id,
                    "seq": request.seq,
                    "watermark": self.watermarks[worker_id],
                }
            )
        else:
            response = self.server.finish_push(request, applied)
            if request.seq is not None:
                self.watermarks[worker_id] = request.seq

        previous = self._last_push_time.get(worker_id)
        self._last_push_time[worker_id] = request.timestamp
        if previous is not None:
            self.idle_timeout = max(
                self.idle_timeout,
                self.wait_timeout + 4.0 * (request.timestamp - previous),
            )
        # Keyed on the store version, not on pushes handled: a duplicate or
        # a staged push advances nothing and must not evaluate again.
        if (
            self.evaluate_every_pushes > 0
            and self.server.store.version - self._evaluated[1] >= self.evaluate_every_pushes
        ):
            self.evaluate(self.elapsed())
        return response

    # -- OKs: the update log, a delta, or the dense weights ---------------
    def reply(self, worker_id: str, *, welcome: bool = False) -> Ok:
        """What the OK (or, with ``welcome``, the join reply) to ``worker_id`` carries.

        The one OK builder of every runtime that sends weights with its OKs.
        A mirror holder gets the update-log entries from its last push base
        to the tip (``log``); else a delta-capable store sends the entries
        dirtied since that base (``delta``); else the weights go densely
        (``dense``), and ``reason`` says why nothing smaller: ``welcome``,
        ``no base`` (no push yet), ``one shard`` (the store serves no
        deltas), or the log's own ``gap``/``bytes``/``opaque``.  A log that
        cannot bridge the span also becomes a ``dense_pull`` event — once,
        because the dense OK leaves the worker without a mirror until its
        next welcome.  Under an update log a welcome (re)builds the worker's
        mirror: ``mirrored`` is set and the packed optimizer state rides
        along as ``velocity`` (``None`` while empty).  Every kind is counted,
        with its payload bytes, in :attr:`pull_replies`.
        """
        store = self.server.store
        base = self._bases.get(worker_id)
        if welcome:
            reason = "welcome"
        elif worker_id in self._mirrored:
            version = store.version
            entries, reason = self.update_log.since(-1 if base is None else base, version)
            if entries is not None:
                sent = (f.nbytes for entry in entries for f in entry.frames_for(worker_id))
                self.pull_replies.update(log=1, log_bytes=sum(sent))
                return Ok("log", version, entries=entries)
            self._mirrored.discard(worker_id)
            self.events.append({"kind": "dense_pull", "worker": worker_id, "reason": reason})
        elif base is None:
            reason = "no base"
        elif not store.supports_delta_pull:
            reason = "one shard"
        else:
            pull = store.pull(base)
            self.pull_replies.update(delta=1, delta_bytes=pull.wire_nbytes)
            return Ok("delta", pull.version, pull)
        pull = store.pull()
        nbytes = sum(payload.buffer.nbytes for payload in pull.flat_weights)
        mirrored = welcome and self.update_log is not None
        velocity = None
        if mirrored:
            self._mirrored.add(worker_id)
            state = self.server.optimizer.state_dict().get("velocity")
            if state:  # step_flat keeps a velocity for every packed segment
                segments = (s for _, layout in store.flat_layouts for s in layout)
                velocity = np.concatenate([state[s.name].ravel() for s in segments])
                nbytes += velocity.nbytes
        self.pull_replies.update(dense=1, dense_bytes=nbytes)
        return Ok("dense", pull.version, pull, mirrored=mirrored, velocity=velocity, reason=reason)

    # -- membership changes --------------------------------------------
    def release(self, worker_id: str) -> tuple[str, ...]:
        """Deregister a finished or departed worker; who that unblocks."""
        if worker_id not in self.server.worker_ids:
            return ()
        return self.server.deregister_worker(worker_id)

    def leave(self, worker_id: str, events=(), **details) -> tuple[str, ...]:
        """A worker left or died mid-run; returns who to release.

        Its staged, not-yet-applied push is dropped (it may be the very
        corruption a robust aggregator exists to reject), the membership
        change re-bounds the policy over the survivors, and with a fault
        injector present the death is logged as a ``crash`` event.
        """
        self.events.extend(dict(event) for event in events or ())
        injector = self.server.fault_injector
        if injector is not None:
            try:
                clock = self.server.policy.clock_table.clock(worker_id)
            except KeyError:
                clock = 0
            injector.record("crash", worker_id, clock=clock, **details)
        self.server.discard_staged(worker_id)
        return self.release(worker_id)

    def done(self, worker_id: str, report: Mapping, events=(), profile=None) -> None:
        """Record a worker's final report (and the events it shipped)."""
        self.reports[worker_id] = WorkerReport(**report)
        self.events.extend(dict(event) for event in events or ())
        if profile is not None:
            self.profile = profile

    def finish(self, **extra_statistics) -> TrainingResult:
        """Close the run: tail window, waits, final evaluation, the result."""
        # Apply the tail window of a buffered robust aggregator before the
        # final evaluation sees the weights.
        self.server.flush_staged()
        wall_time = self.elapsed()
        for worker_id, report in self.reports.items():
            try:
                self.server.policy.clock_table.record_wait(
                    worker_id, report.total_wait_time
                )
            except KeyError:
                pass  # deregistered: finished elastically or died
        self.evaluate(wall_time)
        ordered = [*self.worker_ids, *sorted(self.joined - set(self.worker_ids))]
        reports = [
            self.reports.get(worker_id)
            or WorkerReport(
                worker_id=worker_id,
                iterations=0,
                samples_processed=0,
                total_wait_time=0.0,
                total_compute_time=0.0,
                mean_loss=float("nan"),
            )
            for worker_id in ordered
        ]
        statistics = self.server.statistics()
        statistics.update(extra_statistics)
        return TrainingResult(
            wall_time=wall_time,
            worker_reports=reports,
            server_statistics=statistics,
            evaluation_times=self.evaluation_times,
            evaluation_accuracies=self.evaluation_accuracies,
            evaluation_losses=self.evaluation_losses,
            errors=self.errors,
            events=[dict(event) for event in self.events],
            profile=self.profile,
        )
