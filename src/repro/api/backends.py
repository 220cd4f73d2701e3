"""Pluggable execution backends for :class:`~repro.api.ExperimentSpec`.

A backend turns one spec into one :class:`~repro.api.RunResult`.  Three ship
with the reproduction:

* :class:`SimulatedBackend` — the discrete-event simulator: virtual time,
  real gradients, device/network models (regenerates the paper's figures
  deterministically on a laptop).
* :class:`ProcessBackend` — the multi-process runtime: one OS process per
  worker plus a server process, shards shared zero-copy through
  ``multiprocessing.shared_memory`` (:mod:`repro.ps.shm`), synchronization
  over pipes — true parallel compute on multi-core machines.
* :class:`TcpBackend` — the socket runtime: a standalone parameter server
  speaking the length-prefixed TCP protocol of
  :mod:`repro.ps.tcp_runtime`, workers connecting by address — elastic
  membership, heartbeat liveness, checkpoint/restart.  Self-hosts over
  localhost by default; point it at a running ``python -m repro serve``
  server with ``TcpBackend(address=...)``.

All adapt the existing engines (:mod:`repro.simulation.trainer` and
:mod:`repro.ps`) rather than reimplementing them, and all produce
schema-identical results, so the same spec JSON answers "what does the
paradigm do in a modelled cluster?" and "what does it do on real processes
or sockets?" with a one-flag switch (see ``docs/architecture.md`` for the
backend comparison).  New backends register by name::

    @register_backend("ray")
    class RayBackend:
        name = "ray"
        ...
"""

from __future__ import annotations

import dataclasses
import math
import subprocess
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.api.spec import ExperimentSpec
from repro.experiments.workloads import WORKLOADS, Workload, build_workload
from repro.ps.plan import TrainingPlan, WorkloadPlan
from repro.ps.process_runtime import ProcessTrainer, ProcessTrainingPlan
from repro.ps.result import Provenance, RunResult
from repro.ps.tcp_runtime import TcpTrainer, TcpTrainingPlan
from repro.simulation.cluster import ClusterSpec
from repro.simulation.trainer import SimulatedTraining, SimulationOptions
from repro.utils.registry import Registry
from repro.version import __version__

__all__ = [
    "Backend",
    "SimulatedBackend",
    "ProcessBackend",
    "TcpBackend",
    "BACKENDS",
    "register_backend",
    "get_backend",
    "available_backends",
    "run_experiment",
    "make_provenance",
    "plan_from_spec",
    "tcp_plan_from_spec",
]


@runtime_checkable
class Backend(Protocol):
    """What every execution backend provides."""

    name: str

    def run(
        self,
        spec: ExperimentSpec,
        *,
        workload: Workload | None = None,
        cluster: ClusterSpec | None = None,
        profile: bool = False,
    ) -> RunResult:
        """Execute ``spec`` and return its run record (:func:`run_experiment`
        stamps ``backend`` and ``provenance`` on it).

        ``workload`` and ``cluster`` allow callers that already hold built
        objects (e.g. the paradigm-comparison runner reusing one dataset
        across runs) to inject them; the provenance block records the
        injection.  ``profile`` attaches the per-layer profiler
        (:mod:`repro.utils.profiler`) to one worker's replica and records
        the breakdown in ``RunResult.profile``.
        """
        ...


#: Backend name → backend class; a name alone selects one, so the classes'
#: constructor options are not listed as parameters.
BACKENDS = Registry("backend", configurable=False)
register_backend = BACKENDS.register


def get_backend(name: str) -> Backend:
    """Instantiate a registered backend by name."""
    return BACKENDS[name]()


def available_backends() -> list[str]:
    """Backend names in registration order."""
    return list(BACKENDS)


def run_experiment(
    spec: ExperimentSpec,
    backend: str | Backend = "simulated",
    *,
    workload: Workload | None = None,
    cluster: ClusterSpec | None = None,
    profile: bool = False,
) -> RunResult:
    """Run ``spec`` on ``backend`` (a name or a backend instance); the
    record comes back stamped with the backend's name and the provenance."""
    if isinstance(backend, str):
        backend = get_backend(backend)
    provenance = make_provenance(spec, backend.name, workload, cluster)
    result = backend.run(spec, workload=workload, cluster=cluster, profile=profile)
    return dataclasses.replace(result, backend=backend.name, provenance=provenance)


_GIT_REVISION: str | None = None


def git_revision() -> str:
    """``git describe`` of the working tree (cached; ``"unknown"`` offline)."""
    global _GIT_REVISION
    if _GIT_REVISION is None:
        try:
            _GIT_REVISION = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=5.0,
                check=False,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_REVISION = "unknown"
    return _GIT_REVISION


def make_provenance(
    spec: ExperimentSpec,
    backend_name: str,
    workload: Workload | None = None,
    cluster: ClusterSpec | None = None,
) -> Provenance:
    """The provenance of ``spec`` run on ``backend_name``, with the
    pre-built objects the caller injected recorded by name."""
    injected = []
    if workload is not None:
        injected.append(f"workload:{workload.name}")
    if cluster is not None:
        injected.append(f"cluster:{cluster.num_workers}w")
    return Provenance(
        spec=spec.to_dict(),
        backend=backend_name,
        seed=spec.seed,
        repro_version=__version__,
        git_revision=git_revision(),
        injected=tuple(injected),
    )


def _build_workload(spec: ExperimentSpec) -> Workload:
    return build_workload(
        spec.workload, spec.resolved_scale(), **spec.workload_kwargs
    )


def _reject_simulator_only_fields(spec: ExperimentSpec, backend_name: str) -> None:
    """Fail loudly on spec fields only the simulator can honour.

    Shared by the process and tcp backends so the two can never drift
    on which fields they silently accept — one spec must not train
    differently per backend without saying so.
    """
    if spec.lr_milestones:
        raise ValueError(
            f"the {backend_name} backend does not support lr_milestones; "
            "remove them from the spec or use the simulated backend"
        )
    if spec.max_updates is not None:
        raise ValueError(
            f"the {backend_name} backend does not support max_updates; "
            "remove it from the spec or use the simulated backend"
        )


def _reject_topology(spec: ExperimentSpec, backend_name: str) -> None:
    """Fail loudly on topology/pattern fields only the simulator can honour.

    The wall-clock runtimes time real transfers on real hardware; silently
    ignoring a declared topology or collective pattern would make the same
    spec mean different things per backend.
    """
    if spec.cluster.topology is not None:
        raise ValueError(
            f"the {backend_name} backend cannot model a network topology; "
            "remove cluster.topology from the spec or use the simulated backend"
        )
    if spec.comm_pattern != "ps":
        raise ValueError(
            f"the {backend_name} backend only implements the 'ps' pattern; "
            f"remove comm_pattern={spec.comm_pattern!r} from the spec or use "
            "the simulated backend"
        )


def plan_from_spec(
    spec: ExperimentSpec,
    workload: Workload,
    num_workers: int,
    *,
    plan_type: type[TrainingPlan] = TrainingPlan,
    profile: bool = False,
    wait_timeout: float = 120.0,
    **deployment,
) -> TrainingPlan:
    """The spec as the ``plan_type`` a backend runs: one translation for all three.

    So one spec cannot train differently per backend without saying so.
    The epoch budget becomes an equal per-worker iteration count — the same
    *total* as the simulator's ``"global"`` accounting, which keeps its
    epochs in :class:`~repro.simulation.trainer.SimulationOptions`.  A
    :class:`~repro.ps.plan.WorkloadPlan` also carries what lets its
    processes build the workload themselves; ``deployment`` holds the
    runtime's own fields (address, heartbeats, checkpoint).
    """
    batch_size = spec.resolved_batch_size()
    partition_size = max(len(workload.train_dataset) // num_workers, 1)
    # The liveness guard treats "no push for wait_timeout seconds" as a
    # hang; a slowed-down worker legitimately spends its slowdown asleep
    # every iteration, so the guard must comfortably exceed it.
    max_slowdown = max((float(v) for v in spec.slowdowns.values()), default=0.0)
    fields = {
        "paradigm": spec.paradigm,
        "paradigm_kwargs": dict(spec.paradigm_kwargs),
        "num_workers": num_workers,
        "iterations_per_worker": max(
            1, math.ceil(spec.resolved_epochs() * partition_size / batch_size)
        ),
        "batch_size": batch_size,
        "learning_rate": spec.learning_rate,
        "momentum": spec.momentum,
        "weight_decay": spec.weight_decay,
        "slowdowns": {key: float(value) for key, value in spec.slowdowns.items()},
        "evaluate_every_pushes": spec.resolved_evaluate_every_updates(),
        "dtype": spec.dtype,
        "compression": spec.compression,
        "num_shards": spec.num_shards,
        "shard_strategy": spec.shard_strategy,
        "aggregation": spec.aggregation,
        "faults": spec.faults,
        "net_faults": spec.net_faults,
        "seed": spec.seed,
        "wait_timeout": max(wait_timeout, 4.0 * max_slowdown + 60.0),
        "profile": profile,
    }
    if issubclass(plan_type, WorkloadPlan):
        fields.update(
            workload=WORKLOADS.key(spec.workload),
            workload_kwargs=dict(spec.workload_kwargs),
            scale_fields=dataclasses.asdict(spec.resolved_scale()),
        )
    return plan_type(**fields, **deployment)


@register_backend("simulated")
class SimulatedBackend:
    """Discrete-event simulation backend (virtual time, real gradients)."""

    name = "simulated"

    def run(
        self,
        spec: ExperimentSpec,
        *,
        workload: Workload | None = None,
        cluster: ClusterSpec | None = None,
        profile: bool = False,
    ) -> RunResult:
        """Execute ``spec`` in the simulator."""
        workload = workload or _build_workload(spec)
        cluster = cluster or spec.cluster.build()

        plan = plan_from_spec(spec, workload, cluster.num_workers, profile=profile)
        options = SimulationOptions(
            cluster=cluster,
            epochs=spec.resolved_epochs(),
            epoch_accounting=spec.epoch_accounting,
            lr_milestones=spec.lr_milestones,
            lr_decay=spec.lr_decay,
            max_updates=spec.max_updates,
            timing_cost=workload.timing_cost,
            timing_batch_size=workload.paper_batch_size,
            topology=spec.cluster.topology,
            comm_pattern=spec.comm_pattern,
        )
        return SimulatedTraining(plan, workload, options).run()


@register_backend("process")
class ProcessBackend:
    """Process-per-worker parameter-server backend (wall-clock time).

    Same contract as every backend — one spec in, one schema-identical
    :class:`~repro.api.RunResult` out, the same epoch →
    per-worker-iteration conversion (:func:`plan_from_spec`) — executed by
    :class:`repro.ps.process_runtime.ProcessTrainer`: every worker is an OS
    process, the shards live in shared memory, and compute genuinely
    parallelizes across cores.

    Two restrictions follow from the multi-process execution model:

    * ``lr_milestones`` and ``max_updates`` are rejected, as the tcp
      backend rejects them (one spec must not silently train differently
      per backend);
    * the workload must be a *registered* name — every process uses the
      same build of it, so an injected pre-built :class:`Workload` object
      cannot be honoured and is rejected loudly.

    Pushed gradients reach the server process through per-worker
    shared-memory mailboxes.  ``context`` picks the multiprocessing start
    method
    (default: :func:`repro.ps.process_runtime.default_context_name`).
    ``wait_timeout`` is the liveness guard on every blocking wait (OK
    signals, the server's idle polls, the start barrier); the runtime
    stretches the effective value with the spec's ``slowdowns`` and with
    the iteration times it observes, so declared heterogeneity and heavy
    workloads are not mistaken for hangs — raise it explicitly only for
    workloads whose very *first* iteration exceeds the default.
    """

    name = "process"

    def __init__(self, context: str | None = None, wait_timeout: float = 120.0) -> None:
        """Create the backend with a start method and timeout."""
        self.context = context
        self.wait_timeout = float(wait_timeout)

    def run(
        self,
        spec: ExperimentSpec,
        *,
        workload: Workload | None = None,
        cluster: ClusterSpec | None = None,
        profile: bool = False,
    ) -> RunResult:
        """Execute ``spec`` on the multi-process runtime."""
        _reject_simulator_only_fields(spec, self.name)
        _reject_topology(spec, self.name)
        if workload is not None:
            raise ValueError(
                "the process backend cannot honour an injected workload "
                "object: every process uses the registry's build of the "
                "workload, so pass a registered workload name in the spec"
            )
        num_workers = cluster.num_workers if cluster is not None else (
            len(spec.cluster.worker_ids)
        )
        plan = plan_from_spec(
            spec, _build_workload(spec), num_workers, plan_type=ProcessTrainingPlan,
            profile=profile, wait_timeout=self.wait_timeout,
        )
        trainer = ProcessTrainer(plan, context=self.context)
        return trainer.run()


def tcp_plan_from_spec(
    spec: ExperimentSpec,
    *,
    num_workers: int | None = None,
    profile: bool = False,
    wait_timeout: float = 120.0,
    address: str | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every_pushes: int = 0,
) -> TcpTrainingPlan:
    """Translate a spec into the :class:`TcpTrainingPlan` the server expects.

    Shared by :class:`TcpBackend` and the ``serve`` subcommand so a
    standalone server and the workers launched from the *same spec file*
    always agree on membership, budget and hyper-parameters.  ``address``
    overrides the spec cluster's bind address (the ``--bind`` flag);
    ``checkpoint_path`` enables periodic atomic checkpoints and
    restore-on-start.
    """
    _reject_topology(spec, "tcp")
    if num_workers is None:
        num_workers = len(spec.cluster.worker_ids)
    heartbeat_timeout = float(spec.cluster.heartbeat_timeout)
    return plan_from_spec(
        spec, _build_workload(spec), num_workers, plan_type=TcpTrainingPlan,
        profile=profile, wait_timeout=wait_timeout,
        address=address if address is not None else spec.cluster.address,
        # One lost heartbeat must not kill a worker: probe at a quarter of
        # the declared timeout (capped at the 1 s default cadence).
        heartbeat_interval=min(1.0, heartbeat_timeout / 4.0),
        heartbeat_timeout=heartbeat_timeout,
        checkpoint_path=checkpoint_path,
        checkpoint_every_pushes=checkpoint_every_pushes,
    )


@register_backend("tcp")
class TcpBackend:
    """Socket parameter-server backend (wall-clock time, elastic membership).

    Same contract as :class:`ProcessBackend` — one spec in, one
    schema-identical :class:`~repro.api.RunResult` out, the same epoch →
    per-worker-iteration conversion — but synchronization travels over a
    length-prefixed TCP protocol (:mod:`repro.ps.tcp_runtime`): packed
    flat-buffer shards and codec-encoded pushes are framed directly on the
    socket, workers join and leave mid-run, a heartbeat declares silent
    workers dead, and the server checkpoints/restarts gracefully.

    Two modes:

    * **self-hosted** (default): spawn the server on the spec cluster's
      ``address`` (``127.0.0.1:0`` → ephemeral localhost port) plus one
      process per worker — the multi-process localhost default of
      ``python -m repro run SPEC --backend tcp``.
    * **external** (``address="host:port"``): connect workers to an
      already-running ``python -m repro serve`` server; only workers and
      the result-watch connection are created here.

    The workload restrictions of the process backend apply for the same
    reason (every process uses the same build from the registry): injected
    workload objects and unregistered workload names are rejected loudly.
    """

    name = "tcp"

    def __init__(
        self,
        address: str | None = None,
        context: str | None = None,
        wait_timeout: float = 120.0,
        checkpoint_path: str | None = None,
        checkpoint_every_pushes: int = 0,
    ) -> None:
        """Create the backend; ``address`` switches to external-server mode."""
        self.address = address
        self.context = context
        self.wait_timeout = float(wait_timeout)
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every_pushes = int(checkpoint_every_pushes)

    def run(
        self,
        spec: ExperimentSpec,
        *,
        workload: Workload | None = None,
        cluster: ClusterSpec | None = None,
        profile: bool = False,
    ) -> RunResult:
        """Execute ``spec`` over TCP."""
        _reject_simulator_only_fields(spec, self.name)
        if workload is not None:
            raise ValueError(
                "the tcp backend cannot honour an injected workload object: "
                "every process uses the registry's build of the workload, "
                "so pass a registered workload name in the spec"
            )
        num_workers = cluster.num_workers if cluster is not None else None
        plan = tcp_plan_from_spec(
            spec,
            num_workers=num_workers,
            profile=profile,
            wait_timeout=self.wait_timeout,
            checkpoint_path=self.checkpoint_path,
            checkpoint_every_pushes=self.checkpoint_every_pushes,
        )
        trainer = TcpTrainer(plan, context=self.context, external_address=self.address)
        return trainer.run()
