"""The run description every backend reads, and the recipe that builds it.

A :class:`TrainingPlan` is one training run as plain, validated data: the
process, tcp and simulated backends all receive one (the api
layer's :func:`repro.api.backends.plan_from_spec` compiles a spec into it),
its faults parsed into one :class:`~repro.ps.faults.FaultPlan`.
:class:`WorkloadPlan` adds what lets a process build the workload for
itself.  The ``build_*`` functions, :func:`replica_builder` and
:func:`assemble` are the one recipe turning a plan into server, evaluator
and worker replicas, which is what makes one plan train the same model on
every backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Mapping

import numpy as np

from repro.core.factory import make_policy, validate_paradigm
from repro.data.dataset import ArrayDataset
from repro.data.loader import MiniBatchLoader
from repro.data.partitioner import partition_indices
from repro.metrics.accuracy import evaluate_model
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.module import Module
from repro.optim.sgd import SGD
from repro.ps.aggregation import make_aggregator, validate_aggregation_spec
from repro.ps.compression import make_codec, validate_codec_spec
from repro.ps.faults import FaultInjector, FaultPlan, fault_entries, parse_fault_plan
from repro.ps.session import ServerEvent, ServerSession
from repro.ps.sharding import make_store
from repro.ps.worker import Worker
from repro.utils.rng import RngStream

__all__ = [
    "TrainingPlan",
    "WorkloadPlan",
    "plan_codec",
    "replica_builder",
    "build_optimizer",
    "build_store",
    "build_server",
    "build_evaluator",
    "assemble",
    "DistributedTrainingConfig",
    "assemble_training",
]


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class TrainingPlan:
    """What every backend needs to know about one training run.

    Plain data, validated at construction so a typo fails before any
    process or socket exists.  The simulator reads it as it is; the
    process and tcp runtimes' plan classes
    (:class:`~repro.ps.process_runtime.ProcessTrainingPlan`,
    :class:`~repro.ps.tcp_runtime.TcpTrainingPlan`) extend it with
    deployment settings and the network faults their links can inject.  A
    run is driven through :func:`repro.api.run_experiment`, which builds
    the right one.

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
        Per-worker heterogeneity keyed by worker id (``"worker-0"``, ...):
        a wall-clock runtime sleeps that many seconds per iteration, the
        simulator multiplies the worker's iteration time by the value.
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
    num_shards, shard_strategy:
        Shards of the one store (:class:`repro.ps.sharding.ShardedKeyValueStore`)
        and their key partitioning, ``"size"`` (balanced) or ``"hash"``.
        With more than one, the most-loaded shard gates the simulator's
        push/pull time.
    aggregation:
        Optional robust-aggregation spec (e.g. ``"trimmed_mean:1"``,
        ``"median"``; see :mod:`repro.ps.aggregation`).  ``None`` and
        ``"mean"`` keep the immediate-apply fast path; any other
        aggregator buffers a window of pushes server-side and applies
        their robust combination at once.
    faults, net_faults:
        Optional fault entries (see :mod:`repro.ps.faults`): per-worker
        crash / byzantine / corrupt / flaky faults, and delay / drop /
        partition / throttle network faults.  Construction parses both
        into :attr:`fault_plan`, which is what every backend reads, and
        rejects network-fault kinds the run's links cannot inject
        (:meth:`net_fault_support`).
    seed:
        Master seed of every :class:`~repro.utils.rng.RngStream` in the
        run (data order, weight initialization, codec rounding, faults).
    wait_timeout:
        Safety timeout (seconds) for any blocking wait — OKs, start
        barriers, server-side idle polls — after which the run aborts with
        an error instead of hanging.  Workers stretch it by four times
        their own compute time and the server by four times the push
        intervals it observes, so a heavy model is not mistaken for a hang.
    profile:
        Worker 0 attaches a per-layer profiler
        (:class:`repro.utils.profiler.LayerProfiler`) and ships the timing
        breakdown with its final report; it lands in
        :attr:`~repro.ps.result.RunResult.profile`.
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
    num_shards: int = 1
    shard_strategy: str = "size"
    aggregation: str | None = None
    faults: tuple = ()
    net_faults: tuple = ()
    seed: int = 0
    wait_timeout: float = 120.0
    profile: bool = False
    #: ``faults`` and ``net_faults``, parsed once at construction.
    fault_plan: FaultPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.compression is not None:
            validate_codec_spec(self.compression)
        if self.aggregation is not None:
            validate_aggregation_spec(self.aggregation)
        for name in (
            "num_workers", "iterations_per_worker", "batch_size", "micro_batches", "num_shards"
        ):
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
        # Through the parser's own check: a bare mapping or string is refused, not split.
        object.__setattr__(self, "faults", fault_entries(self.faults, "fault"))
        net_faults = fault_entries(self.net_faults, "net fault")
        object.__setattr__(self, "net_faults", tuple(dict(entry) for entry in net_faults))
        object.__setattr__(
            self, "fault_plan", parse_fault_plan(self.faults, self.net_faults, self.worker_ids)
        )
        kinds, links = self.net_fault_support()
        unsupported = [kind for kind in self.fault_plan.net_kinds() if kind not in kinds]
        if unsupported:
            raise ValueError(
                f"net fault kinds {unsupported} are not supported by {links}; "
                f"supported kinds: {', '.join(kinds) or 'none'}"
            )

    def net_fault_support(self) -> tuple[tuple[str, ...], str]:
        """The network-fault kinds this run's links can inject, and the links.

        The simulated and process backends move pushes through memory,
        never across a connection: none.
        """
        return (), (
            "the simulated and process backends, which have no "
            "network to inject faults into; use the tcp backend"
        )

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
    crash_at: Mapping[str, int] = field(default_factory=dict)
    crash_after_push: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
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
    ``build(index)``'s loader reads its partition's rows of the shared
    training set in place.

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
            workload.train_dataset,
            batch_size=plan.batch_size,
            rng=streams.get(f"loader-{worker_id}"),
            rows=partitions[index],
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


def build_store(plan: TrainingPlan, workload):
    """The global model's weights in a heap store of the plan's shard layout."""
    global_model = workload.model_builder(RngStream(plan.seed).get("init"))
    return make_store(
        initial_weights={name: p.data for name, p in global_model.named_parameters()},
        initial_buffers=global_model.buffers(),
        num_shards=plan.num_shards,
        strategy=plan.shard_strategy,
        dtype=plan.dtype,
    )


def build_server(
    plan: TrainingPlan, store, workload=None, *, schedule=None, clock=time.monotonic
) -> ServerSession:
    """The plan's server over ``store``, expecting the plan's workers (none joined yet).

    With ``workload`` it evaluates on the workload's test set, and
    ``schedule`` replaces the constant learning rate over the epochs of
    its training set the pushes add up to; ``clock`` is the run's time
    source.
    """
    return ServerSession(
        store,
        build_optimizer(plan),
        make_policy(plan.paradigm, **plan.paradigm_kwargs),
        plan.worker_ids,
        learning_rate_schedule=schedule,
        epoch_samples=len(workload.train_dataset) if workload is not None else 0,
        aggregator=(
            make_aggregator(plan.aggregation) if plan.aggregation is not None else None
        ),
        fault_injector=(
            FaultInjector(plan.fault_plan, RngStream(plan.seed))
            if plan.fault_plan.faults
            else None
        ),
        evaluate_fn=build_evaluator(plan, workload) if workload is not None else None,
        evaluate_every_pushes=plan.evaluate_every_pushes,
        wait_timeout=plan.wait_timeout,
        clock=clock,
        batch_size=plan.batch_size,
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


def assemble(plan: TrainingPlan, workload, *, schedule=None, clock=time.monotonic):
    """An in-process run's pieces: ``(server, workers)``.

    Global model → store (:func:`build_store`) → server → one joined
    replica per expected worker, all starting from the global initial
    weights as in the paper.  The replicas are not packed yet: the caller
    attaches the store's layout.
    """
    store = build_store(plan, workload)
    server = build_server(plan, store, workload, schedule=schedule, clock=clock)
    build = replica_builder(plan, workload)
    workers = []
    for index, worker_id in enumerate(plan.worker_ids):
        server.dispatch(ServerEvent(worker_id, "join"))
        workers.append(build(index))
    return server, workers


# Only perfbench/layers.py still uses the two names below; ROADMAP item 6(b)
# removes them.  A run's description is the plan itself.
DistributedTrainingConfig = TrainingPlan


def assemble_training(
    config: TrainingPlan,
    model_builder: Callable[[np.random.Generator], Module],
    train_dataset: ArrayDataset,
    test_dataset: ArrayDataset | None = None,
) -> SimpleNamespace:
    """:func:`assemble` over a workload given as its parts, for a caller
    that drives the pieces itself: its ``server`` and ``workers``, each
    replica packed to mirror the store's layout."""
    workload = SimpleNamespace(
        model_builder=model_builder, train_dataset=train_dataset, test_dataset=test_dataset
    )
    server, workers = assemble(config, workload)
    for worker in workers:
        worker.attach_flat_layout(server.store.flat_layouts)
    return SimpleNamespace(server=server, workers=workers)
