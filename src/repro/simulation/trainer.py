"""Simulated distributed training: virtual time, real gradients.

The simulator drives the same :class:`repro.ps.server.ParameterServer` and
:class:`repro.ps.worker.Worker` objects as the threaded runtime, but instead
of real threads and wall-clock time it advances a virtual clock with a
discrete-event loop:

1. every worker starts by pulling the initial weights and schedules its
   first *push arrival* after one simulated iteration time (compute time on
   its device plus push/pull communication time on its link);
2. the earliest push arrival is processed: the worker's gradient is computed
   *for real* from its (possibly stale) local weights, applied at the server,
   and the synchronization policy decides whether the worker continues
   immediately or waits;
3. released workers pull the fresh weights and schedule their next push;
   blocked workers are released (and their waiting time recorded) when a
   later push satisfies their policy condition;
4. the global model is periodically evaluated on the test set, producing the
   accuracy-versus-virtual-time curves that correspond to the paper's
   figures.

Because gradients are real, stale updates genuinely perturb convergence —
ASP pays an accuracy cost, BSP pays a time cost, and SSP/DSSP trade between
them exactly as in the paper; because time is simulated, heterogeneous GPU
clusters (Figure 4, Table I) can be reproduced deterministically on a
laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.dssp import DynamicStaleSynchronousParallel
from repro.core.factory import make_policy, paradigm_label, validate_paradigm
from repro.data.dataset import ArrayDataset
from repro.data.loader import MiniBatchLoader
from repro.data.partitioner import partition_dataset
from repro.metrics.accuracy import evaluate_model
from repro.metrics.convergence import time_to_accuracy
from repro.metrics.throughput import (
    EMPTY_PERCENTILES,
    PercentileSummary,
    ThroughputSummary,
    iteration_throughput,
    percentile_summary,
)
from repro.metrics.tracker import ExperimentTracker
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.module import Module
from repro.optim.schedules import ConstantSchedule, MultiStepSchedule
from repro.optim.sgd import SGD
from repro.ps.aggregation import make_aggregator, validate_aggregation_spec
from repro.ps.compression import make_codec, validate_codec_spec
from repro.ps.faults import FaultInjector, parse_fault_specs
from repro.ps.messages import PullRequest, PushRequest
from repro.ps.server import ParameterServer
from repro.ps.sharding import make_store
from repro.ps.worker import Worker
from repro.simulation.cluster import ClusterSpec
from repro.simulation.clock import VirtualClock
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.topology import (
    Topology,
    TopologyTimeModel,
    build_topology,
    validate_comm_pattern,
    validate_topology_spec,
)
from repro.simulation.trace import SimulationTrace
from repro.simulation.workload import IterationTimeModel, estimate_model_cost
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

__all__ = ["SimulationConfig", "SimulationResult", "SimulatedTraining", "simulate_training"]

_LOGGER = get_logger("simulation.trainer")


@dataclass
class SimulationConfig:
    """Configuration of one simulated training run.

    Attributes
    ----------
    cluster:
        The simulated machines (device profiles, network links, GPUs per
        worker).
    paradigm, paradigm_kwargs:
        Synchronization paradigm name and its parameters.
    epochs:
        Epoch budget (the paper trains for 300 epochs; the offline defaults
        are smaller).  How the budget is accounted is controlled by
        ``epoch_accounting``.
    epoch_accounting:
        ``"global"`` (default): training stops once the server has applied
        ``epochs * len(train) / batch_size`` updates in total, regardless of
        which workers produced them — on a heterogeneous cluster fast
        workers therefore contribute more updates and asynchronous-like
        paradigms finish earlier, as in the paper's Figure 4.
        ``"per_worker"``: every worker performs exactly its own share of
        iterations (strict data-parallel epochs); total training time is then
        gated by the slowest worker for every paradigm.
    batch_size:
        Mini-batch size per worker iteration.
    learning_rate, momentum, weight_decay:
        Server-side SGD hyper-parameters.
    lr_milestones, lr_decay:
        Epoch milestones at which the learning rate is multiplied by
        ``lr_decay`` (the paper uses milestones (200, 250) with decay 0.1).
    evaluate_every_updates:
        Evaluate the global model every N server updates; <= 0 evaluates
        only at the start and end.
    max_updates:
        Optional hard cap on the number of server updates (safety valve for
        benchmarks).
    time_scale:
        Uniform stretch applied to all simulated durations.
    timing_jitter:
        Whether per-iteration times receive random jitter (kept on for
        realism; turn off for exactly reproducible timing analyses).
    timing_cost:
        Optional :class:`repro.simulation.workload.ModelCost` used for the
        *time* components only.  The experiment harness passes the cost of
        the paper-scale architecture here while training a scaled-down model,
        so the compute-to-communication ratio (which drives the paradigms'
        relative behaviour) matches the paper's hardware even though the
        arithmetic runs on a smaller network.  When ``None`` the cost is
        estimated from the trained model itself.
    timing_batch_size:
        Mini-batch size used for the *time* components only (the paper uses
        128); defaults to ``batch_size`` when ``None``.
    slowdown_schedule:
        Optional callable ``(worker_id, virtual_time) -> multiplier`` applied
        to that worker's next iteration time.  Models unstable environments
        (fluctuating network, transient stragglers) — the scenario the paper
        lists as future work; see
        :func:`repro.experiments.ablations.fluctuating_environment_ablation`.
    num_server_shards:
        Number of shards the store
        (:class:`repro.ps.sharding.ShardedKeyValueStore`) splits the model
        across.  With more than 1 (the default) workers pull copy-on-write
        deltas, and the simulated push/pull time is gated by the
        most-loaded shard instead of the full payload (parallel per-shard
        transfers).
    shard_strategy:
        Key partitioning strategy for the sharded store (``"size"`` or
        ``"hash"``).
    dtype:
        Element dtype of the server-held weights (``"float64"`` or
        ``"float32"``).
    compression:
        Optional push codec spec (e.g. ``"topk:0.01"``; see
        :mod:`repro.ps.compression`).  Workers encode their real gradients
        (so sparsification genuinely perturbs convergence, as in Figure 3)
        and the virtual clock charges the *push* leg of every iteration for
        the codec's wire fraction of the dense payload instead of the full
        parameter bytes.
    aggregation:
        Optional server-side aggregator spec (e.g. ``"trimmed_mean:1"``;
        see :mod:`repro.ps.aggregation`).  ``None``/``"mean"`` keep the
        immediate-apply path; robust aggregators buffer each clock window
        of pushes before applying their combination as one update.
    faults:
        Optional chaos plan — per-worker fault entries as in
        :mod:`repro.ps.faults`.  Crashes deregister the worker at its fault
        clock (the policy re-bounds, exactly as for a real death), gradient
        corruption is injected at the server boundary, and flaky workers
        have their iteration time multiplied by ``scale`` during slow
        phases.  Every fault draws from the run's named RNG streams, so a
        chaos run replays identically from the seed.
    topology:
        Optional network topology for the *time* components: a preset name
        (``"flat"``, ``"two-rack"``, ``"tail-heavy"``), an inline topology
        dict, or a prebuilt :class:`repro.simulation.topology.Topology`.
        ``None`` keeps the flat :class:`NetworkModel` cost path untouched;
        the ``"flat"`` preset builds the degenerate single-link topology
        from the cluster's network, which is bit-for-bit identical to
        ``None`` in virtual time (the parity gate).  Shared rack uplinks
        queue transfers FIFO, and every queueing delay lands in
        ``SimulationResult.queue_trace``.
    comm_pattern:
        ``"ps"`` (default): every iteration pays a push and a pull on the
        worker's server path.  ``"ring_allreduce"``: workers exchange
        ``2*(n-1)`` chunked ring steps per synchronous round instead;
        requires the BSP paradigm (the ring is a synchronous collective),
        a single server shard, and no compression/aggregation/faults.  The
        gradient *math* still flows through the parameter server (whose
        sequential sum a ring reduce-scatter reproduces bit-for-bit on
        identical pushes); only the costed time and wire bytes change.
    profile:
        Attach a per-layer forward/backward profiler
        (:class:`repro.utils.profiler.LayerProfiler`) to the first worker's
        replica and record the breakdown in ``SimulationResult.profile``.
    seed:
        Master seed controlling data order, initialization and jitter.
    """

    cluster: ClusterSpec
    paradigm: str = "dssp"
    paradigm_kwargs: dict = field(default_factory=lambda: {"s_lower": 3, "s_upper": 15})
    epochs: float = 3.0
    epoch_accounting: str = "global"
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_milestones: tuple[float, ...] = ()
    lr_decay: float = 0.1
    evaluate_every_updates: int = 20
    max_updates: int | None = None
    time_scale: float = 1.0
    timing_jitter: bool = True
    timing_cost: object | None = None
    timing_batch_size: int | None = None
    slowdown_schedule: Callable[[str, float], float] | None = None
    num_server_shards: int = 1
    shard_strategy: str = "size"
    dtype: str = "float64"
    profile: bool = False
    compression: str | None = None
    aggregation: str | None = None
    faults: tuple = ()
    topology: str | dict | Topology | None = None
    comm_pattern: str = "ps"
    seed: int = 0

    def __post_init__(self) -> None:
        self.comm_pattern = validate_comm_pattern(self.comm_pattern)
        if self.topology is not None and not isinstance(self.topology, Topology):
            validate_topology_spec(self.topology)
        if self.topology is not None and self.num_server_shards != 1:
            raise ValueError(
                "topology-aware timing models a single server endpoint; "
                "use num_server_shards=1 with a topology"
            )
        if self.comm_pattern == "ring_allreduce":
            if self.paradigm != "bsp":
                raise ValueError(
                    "comm_pattern 'ring_allreduce' is a synchronous collective; "
                    f"it requires paradigm 'bsp', got {self.paradigm!r}"
                )
            if self.cluster.num_workers < 2:
                raise ValueError("ring allreduce needs at least 2 workers")
            if self.compression is not None:
                raise ValueError(
                    "comm_pattern 'ring_allreduce' does not compose with push "
                    "compression (the ring exchanges dense chunks)"
                )
            if self.aggregation is not None:
                raise ValueError(
                    "comm_pattern 'ring_allreduce' does not compose with robust "
                    "aggregation (the ring sums all contributions)"
                )
            if self.faults:
                raise ValueError(
                    "comm_pattern 'ring_allreduce' does not compose with fault "
                    "injection (a ring has no elastic membership)"
                )
            if self.num_server_shards != 1:
                raise ValueError("ring allreduce requires num_server_shards=1")
        if self.compression is not None:
            validate_codec_spec(self.compression)
        if self.aggregation is not None:
            validate_aggregation_spec(self.aggregation)
        self.faults = tuple(self.faults)
        if self.faults:
            parse_fault_specs(
                self.faults, [spec.worker_id for spec in self.cluster.workers]
            )
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.num_server_shards <= 0:
            raise ValueError("num_server_shards must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.max_updates is not None and self.max_updates <= 0:
            raise ValueError("max_updates must be positive when given")
        if self.epoch_accounting not in ("global", "per_worker"):
            raise ValueError(
                f"epoch_accounting must be 'global' or 'per_worker', got {self.epoch_accounting!r}"
            )
        # Fail fast: a typo in the paradigm name or its kwargs must surface
        # here, at config construction, not minutes into a run.
        validate_paradigm(self.paradigm, self.paradigm_kwargs)


@dataclass
class SimulationResult:
    """Everything a simulated run reports."""

    paradigm: str
    paradigm_label: str
    times: np.ndarray
    accuracies: np.ndarray
    losses: np.ndarray
    total_virtual_time: float
    total_updates: int
    throughput: ThroughputSummary
    wait_time_per_worker: dict[str, float]
    iterations_per_worker: dict[str, int]
    mean_loss_per_worker: dict[str, float]
    staleness_summary: object
    server_statistics: dict
    tracker: ExperimentTracker
    trace: SimulationTrace
    controller_decisions: int = 0
    #: Per-worker push/pull transfer accounting (actual encoded byte counts,
    #: matching what the real runtimes report; see repro.metrics.throughput).
    pushed_wire_bytes_per_worker: dict[str, int] = field(default_factory=dict)
    pushed_raw_bytes_per_worker: dict[str, int] = field(default_factory=dict)
    pulled_bytes_per_worker: dict[str, int] = field(default_factory=dict)
    #: Per-layer timing breakdown of the first worker's replica (real
    #: wall-clock compute, not virtual time); None unless profiling was on.
    profile: dict | None = None
    #: Structured fault/membership events (crashes, corrupted pushes,
    #: aggregator rejections) in server observation order; empty when clean.
    events: list = field(default_factory=list)
    #: Tail statistics of per-worker iteration intervals (push-to-push
    #: virtual time, including synchronization waits) pooled across workers.
    iteration_time_summary: PercentileSummary = EMPTY_PERCENTILES
    #: FIFO queueing records of the topology's shared links (one dict per
    #: shared-link traversal: link, arrival, start, wait, nbytes, tag);
    #: empty for flat runs and degenerate topologies with no shared links.
    queue_trace: list = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        """Accuracy of the last evaluation."""
        return float(self.accuracies[-1]) if self.accuracies.size else 0.0

    @property
    def best_accuracy(self) -> float:
        """Best accuracy over the run."""
        return float(self.accuracies.max()) if self.accuracies.size else 0.0

    @property
    def total_wait_time(self) -> float:
        """Sum of all workers' synchronization waiting time."""
        return float(sum(self.wait_time_per_worker.values()))

    def time_to_accuracy(self, target: float) -> float | None:
        """Virtual time needed to reach ``target`` accuracy (None if never)."""
        return time_to_accuracy(self.times, self.accuracies, target)


class SimulatedTraining:
    """Discrete-event simulation of one distributed training run."""

    def __init__(
        self,
        config: SimulationConfig,
        model_builder: Callable[[np.random.Generator], Module],
        train_dataset: ArrayDataset,
        test_dataset: ArrayDataset,
    ) -> None:
        self.config = config
        self.model_builder = model_builder
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self._streams = RngStream(config.seed)
        self._fault_plan = parse_fault_specs(
            config.faults, [spec.worker_id for spec in config.cluster.workers]
        )
        self._injector = (
            FaultInjector(self._fault_plan, self._streams)
            if config.faults
            else None
        )

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _build_server(self, global_model: Module) -> ParameterServer:
        config = self.config
        store = make_store(
            initial_weights={name: p.data for name, p in global_model.named_parameters()},
            initial_buffers=global_model.buffers(),
            num_shards=config.num_server_shards,
            strategy=config.shard_strategy,
            dtype=config.dtype,
        )
        optimizer = SGD(
            learning_rate=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        if config.lr_milestones:
            schedule = MultiStepSchedule(
                config.learning_rate, config.lr_milestones, decay=config.lr_decay
            )
        else:
            schedule = ConstantSchedule(config.learning_rate)
        policy = make_policy(config.paradigm, **config.paradigm_kwargs)
        aggregator = (
            make_aggregator(config.aggregation)
            if config.aggregation is not None
            else None
        )
        return ParameterServer(
            store=store,
            optimizer=optimizer,
            policy=policy,
            learning_rate_schedule=schedule,
            aggregator=aggregator,
            fault_injector=self._injector,
        )

    def _build_workers(self, global_model: Module, server: ParameterServer) -> dict[str, Worker]:
        config = self.config
        partitions = partition_dataset(
            self.train_dataset, config.cluster.num_workers, rng=self._streams.get("partition")
        )
        workers: dict[str, Worker] = {}
        for spec, partition in zip(config.cluster.workers, partitions):
            server.register_worker(spec.worker_id)
            loader = MiniBatchLoader(
                partition,
                batch_size=config.batch_size,
                rng=self._streams.get(f"loader-{spec.worker_id}"),
            )
            replica = self.model_builder(self._streams.get(f"model-{spec.worker_id}"))
            replica.load_state_dict(global_model.state_dict())
            worker = Worker(
                worker_id=spec.worker_id,
                model=replica,
                loader=loader,
                loss_fn=SoftmaxCrossEntropy(),
            )
            if config.compression is not None:
                # One codec per worker: error-feedback residuals are worker
                # state, and the per-worker stream keeps stochastic codecs
                # deterministic.
                codec = make_codec(config.compression)
                codec.reseed(self._streams.get(f"codec-{spec.worker_id}"))
                worker.set_codec(codec)
            workers[spec.worker_id] = worker
        return workers

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        config = self.config
        global_model = self.model_builder(self._streams.get("init"))
        eval_model = self.model_builder(self._streams.get("eval"))
        server = self._build_server(global_model)
        workers = self._build_workers(global_model, server)
        profiler = None
        if config.profile:
            from repro.utils.profiler import LayerProfiler

            first_worker = next(iter(workers.values()))
            profiler = LayerProfiler(
                first_worker.model, loss_fn=first_worker.loss_fn
            ).attach()

        sample_shape = self.train_dataset.sample_shape
        cost = config.timing_cost or estimate_model_cost(global_model, sample_shape)
        store = server.store
        # Per-shard transfer cost: the simulated push/pull is gated by the
        # most-loaded shard, with the split taken from the store's
        # partition (one shard: the whole payload).  Empty shards transfer
        # nothing and cannot gate the operation.
        total_bytes = max(store.nbytes, 1)
        shard_fractions = tuple(
            nbytes / total_bytes for nbytes in store.shard_nbytes if nbytes > 0
        ) or (1.0,)
        push_wire_fraction = 1.0
        if config.compression is not None:
            # The codec's a-priori estimate of encoded-vs-dense push bytes;
            # clamped because the time model treats >1 as a spec error (an
            # inflating codec still pays at most the dense charge).
            push_wire_fraction = min(1.0, make_codec(config.compression).wire_fraction())
        # The topology path replaces only the *cost* model; the flat path is
        # kept verbatim when no topology (and no collective pattern) is
        # requested so existing runs stay bit-for-bit.
        topo_model: TopologyTimeModel | None = None
        if config.topology is not None or config.comm_pattern != "ps":
            worker_ids = [spec.worker_id for spec in config.cluster.workers]
            topology = build_topology(
                config.topology if config.topology is not None else "flat",
                worker_ids,
                config.cluster.workers[0].network,
            )
            topo_model = TopologyTimeModel(
                cost,
                batch_size=config.timing_batch_size or config.batch_size,
                topology=topology,
                time_scale=config.time_scale,
                push_wire_fraction=push_wire_fraction,
                comm_pattern=config.comm_pattern,
                worker_ids=worker_ids,
            )
        time_model = IterationTimeModel(
            cost,
            batch_size=config.timing_batch_size or config.batch_size,
            time_scale=config.time_scale,
            shard_fractions=shard_fractions,
            push_wire_fraction=push_wire_fraction,
        )
        timing_rng = self._streams.get("timing") if config.timing_jitter else None

        partition_size = len(self.train_dataset) // config.cluster.num_workers
        iterations_per_worker = max(
            1, int(np.ceil(config.epochs * partition_size / config.batch_size))
        )
        total_update_budget = max(
            1, int(np.ceil(config.epochs * len(self.train_dataset) / config.batch_size))
        )
        if config.epoch_accounting == "global":
            # Workers keep iterating until the global update budget is spent;
            # a fast worker may contribute more updates than its own share.
            quota = {worker_id: total_update_budget for worker_id in workers}
        else:
            quota = {worker_id: iterations_per_worker for worker_id in workers}

        clock = VirtualClock()
        queue = EventQueue()
        trace = SimulationTrace()
        tracker = ExperimentTracker()

        blocked_since: dict[str, float] = {}
        wait_time: dict[str, float] = {worker_id: 0.0 for worker_id in workers}
        iterations_done: dict[str, int] = {worker_id: 0 for worker_id in workers}
        loss_sum: dict[str, float] = {worker_id: 0.0 for worker_id in workers}
        samples_processed = 0
        last_eval_update = -1

        crash_at = self._fault_plan.crash_at()

        def iteration_time(worker_id: str, now: float) -> float:
            spec = config.cluster.worker(worker_id)
            if topo_model is not None:
                duration = topo_model.iteration_time(
                    spec,
                    rng=timing_rng,
                    now=now,
                    round_index=iterations_done[worker_id],
                )
            else:
                duration = time_model.iteration_time(spec, rng=timing_rng)
            if config.slowdown_schedule is not None:
                factor = float(config.slowdown_schedule(worker_id, now))
                if factor <= 0:
                    raise ValueError(
                        f"slowdown_schedule returned non-positive factor {factor} "
                        f"for worker {worker_id!r}"
                    )
                duration *= factor
            flaky = self._fault_plan.flaky_for(worker_id)
            if flaky is not None and flaky.slow(iterations_done[worker_id]):
                duration *= flaky.scale
            return duration

        def evaluate(now: float) -> None:
            nonlocal last_eval_update
            # Zero-copy state views: load_state_dict copies them into the
            # evaluation model's own arrays.
            eval_model.load_state_dict(dict(server.store.state_views()))
            accuracy, loss = evaluate_model(
                eval_model, self.test_dataset, batch_size=max(config.batch_size, 64)
            )
            tracker.record("accuracy", now, accuracy, step=server.store.version)
            tracker.record("test_loss", now, loss, step=server.store.version)
            trace.record(now, "evaluation", accuracy=accuracy, loss=loss)
            last_eval_update = server.store.version

        def schedule_push(worker_id: str, now: float) -> None:
            queue.push(
                Event(
                    time=now + iteration_time(worker_id, now),
                    kind=EventKind.PUSH_ARRIVAL,
                    worker_id=worker_id,
                )
            )

        delta_pulls = server.store.supports_delta_pull
        # Mirror the store's packed layout in every replica so full pulls
        # move one buffer per shard instead of N named arrays.
        for worker in workers.values():
            worker.attach_flat_layout(server.store.flat_layouts)

        def pull_into(worker_id: str) -> None:
            """Refresh a worker's replica (delta pull when the store can)."""
            worker = workers[worker_id]
            request = None
            if delta_pulls:
                request = PullRequest(worker_id=worker_id, known_version=worker.local_version)
            worker.load_reply(server.handle_pull(request))

        def release_worker(worker_id: str, now: float, waited: float) -> None:
            wait_time[worker_id] += waited
            trace.record(now, "release", worker_id=worker_id, wait_time=waited)
            pull_into(worker_id)
            if iterations_done[worker_id] < quota[worker_id]:
                schedule_push(worker_id, now)

        # Initial pulls and first pushes.  One pull per worker: replies are
        # consumed (and their copy-on-write leases released) by load_reply,
        # so a shared reply must not outlive the first consumer.
        for worker_id, worker in workers.items():
            worker.load_reply(server.handle_pull())
            schedule_push(worker_id, 0.0)
        evaluate(0.0)

        if config.epoch_accounting == "global":
            max_updates = config.max_updates or total_update_budget
        else:
            max_updates = config.max_updates or (iterations_per_worker * len(workers))
        while queue and server.store.version < max_updates:
            event = queue.pop()
            clock.advance_to(event.time)
            now = clock.now
            if event.kind is not EventKind.PUSH_ARRIVAL:
                continue
            worker_id = event.worker_id
            crash_clock = crash_at.get(worker_id)
            if crash_clock is not None and iterations_done[worker_id] >= crash_clock:
                # The worker dies at its fault clock: its push never lands,
                # any staged (unapplied) contribution is rejected, and the
                # policy re-bounds exactly as for a real runtime death.
                self._injector.record(
                    "crash", worker_id, clock=iterations_done[worker_id], time=now
                )
                trace.record(now, "crash", worker_id=worker_id)
                server.discard_staged(worker_id)
                for released_id in server.deregister_worker(worker_id):
                    waited = now - blocked_since.pop(released_id, now)
                    release_worker(released_id, now, waited)
                continue
            worker = workers[worker_id]

            computation = worker.compute_gradients()
            samples_processed += computation.samples
            progress_epochs = samples_processed / max(len(self.train_dataset), 1)
            server.set_progress(progress_epochs)

            flat_gradients, encoded, codec_name = worker.prepare_push(computation)
            response = server.handle_push(
                PushRequest(
                    worker_id=worker_id,
                    gradients=computation.gradients,
                    base_version=computation.base_version,
                    timestamp=now,
                    buffers=computation.buffers,
                    local_loss=computation.loss,
                    flat_gradients=flat_gradients,
                    encoded_gradients=encoded,
                    codec=codec_name,
                )
            )
            iterations_done[worker_id] += 1
            loss_sum[worker_id] += computation.loss
            tracker.record("train_loss", now, computation.loss, step=server.store.version)
            trace.record(
                now,
                "push",
                worker_id=worker_id,
                staleness=response.staleness,
                version=response.new_version,
            )

            if response.release_now:
                pull_into(worker_id)
                if iterations_done[worker_id] < quota[worker_id]:
                    schedule_push(worker_id, now)
            else:
                blocked_since[worker_id] = now
                trace.record(now, "block", worker_id=worker_id)

            for released_id in response.released_workers:
                waited = now - blocked_since.pop(released_id, now)
                release_worker(released_id, now, waited)

            if (
                config.evaluate_every_updates > 0
                and server.store.version - last_eval_update >= config.evaluate_every_updates
            ):
                evaluate(now)

        # Any still-blocked workers are released at the end of the run so
        # their waiting time up to the final event is accounted for.
        final_time = clock.now
        for worker_id, since in list(blocked_since.items()):
            wait_time[worker_id] += final_time - since
        # A buffered aggregator may hold a partially-filled tail window;
        # apply it so the final evaluation sees every surviving push.
        server.flush_staged()
        if server.store.version != last_eval_update:
            evaluate(final_time)

        accuracy_series = tracker.series("accuracy")
        loss_series = tracker.series("test_loss")
        throughput = iteration_throughput(
            total_updates=server.store.version,
            total_time=max(final_time, 1e-12),
            samples_per_update=config.batch_size,
        )
        policy = server.policy
        controller_decisions = (
            len(policy.controller_decisions())
            if isinstance(policy, DynamicStaleSynchronousParallel)
            else 0
        )
        profile = None
        if profiler is not None:
            profiler.detach()
            profile = {
                "worker_id": next(iter(workers)),
                **profiler.as_dict(),
            }
        # Tail statistics of iteration intervals: per-worker push-to-push
        # virtual time (the first interval measured from t=0), pooled across
        # workers — this is what the topology sweeps' p50/p90/p99 report.
        interval_samples: list[float] = []
        for worker_id in workers:
            times = trace.push_times(worker_id)
            if times.size:
                interval_samples.extend(np.diff(times, prepend=0.0).tolist())
        iteration_time_summary = percentile_summary(interval_samples)

        pushed_wire = {
            worker_id: worker.pushed_wire_bytes
            for worker_id, worker in workers.items()
        }
        pushed_raw = {
            worker_id: worker.pushed_raw_bytes
            for worker_id, worker in workers.items()
        }
        pulled = {
            worker_id: worker.pulled_bytes for worker_id, worker in workers.items()
        }
        if topo_model is not None and config.comm_pattern == "ring_allreduce":
            # Model-costed ring accounting: each round wires
            # 2*(n-1)/n * payload per worker and pulls nothing from a server
            # (the substrate's PS transfers never happen on the simulated
            # wire).  Raw bytes stay the dense payload per iteration.
            ring_wire = topo_model.ring_wire_bytes_per_iteration()
            payload = float(topo_model.cost.parameter_bytes)
            pushed_wire = {
                worker_id: int(round(iterations_done[worker_id] * ring_wire))
                for worker_id in workers
            }
            pushed_raw = {
                worker_id: int(round(iterations_done[worker_id] * payload))
                for worker_id in workers
            }
            pulled = {worker_id: 0 for worker_id in workers}

        label = paradigm_label(config.paradigm, config.paradigm_kwargs)
        _LOGGER.info(
            "%s finished: %.0f virtual seconds, %d updates, final accuracy %.3f",
            label,
            final_time,
            server.store.version,
            accuracy_series.values[-1] if len(accuracy_series) else 0.0,
        )
        return SimulationResult(
            paradigm=config.paradigm,
            paradigm_label=label,
            times=accuracy_series.times,
            accuracies=accuracy_series.values,
            losses=loss_series.values,
            total_virtual_time=final_time,
            total_updates=server.store.version,
            throughput=throughput,
            wait_time_per_worker=dict(wait_time),
            iterations_per_worker=dict(iterations_done),
            mean_loss_per_worker={
                worker_id: loss_sum[worker_id] / iterations_done[worker_id]
                if iterations_done[worker_id]
                else 0.0
                for worker_id in workers
            },
            staleness_summary=server.staleness_tracker.summary(),
            server_statistics=server.statistics(),
            tracker=tracker,
            trace=trace,
            controller_decisions=controller_decisions,
            pushed_wire_bytes_per_worker=pushed_wire,
            pushed_raw_bytes_per_worker=pushed_raw,
            pulled_bytes_per_worker=pulled,
            profile=profile,
            events=list(self._injector.events) if self._injector else [],
            iteration_time_summary=iteration_time_summary,
            queue_trace=list(topo_model.state.queue_trace) if topo_model else [],
        )


def simulate_training(
    config: SimulationConfig,
    model_builder: Callable[[np.random.Generator], Module],
    train_dataset: ArrayDataset,
    test_dataset: ArrayDataset,
) -> SimulationResult:
    """Convenience wrapper: build and run a :class:`SimulatedTraining`."""
    return SimulatedTraining(config, model_builder, train_dataset, test_dataset).run()
