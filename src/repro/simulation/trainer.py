"""Simulated distributed training: virtual time, real gradients.

The simulator runs the one server protocol — the same
:class:`repro.ps.session.ServerSession`, built by the same plan recipes
(:func:`repro.ps.session.assemble`), as the three wall-clock runtimes — with
a :class:`VirtualClock` as the session's time source.  What is the
simulator's own is *when* things happen, decided by a discrete-event loop:

1. every worker starts by pulling the initial weights and schedules its
   first *push arrival* after one simulated iteration time (compute time on
   its device plus push/pull communication time on its link);
2. the earliest push arrival is processed: the worker's gradient is computed
   *for real* from its (possibly stale) local weights and handed to
   ``session.push``, which applies it, lets the synchronization policy
   decide whether the worker continues immediately or waits, and evaluates
   the global model on the plan's cadence;
3. released workers pull the fresh weights and schedule their next push;
   blocked workers are released (and their waiting time recorded) when a
   later push — or a crash, ``session.leave`` — satisfies their condition;
4. ``session.finish`` closes the run exactly as it closes a wall-clock one,
   producing the accuracy-versus-virtual-time curves that correspond to the
   paper's figures.

The worker side is this event loop rather than a
:class:`~repro.ps.session.WorkerLoop` over a link on purpose: a worker loop
blocks in ``await_ok``, and a link whose wait cannot block would hide the
very thing the simulator decides — the delivery time of every OK.

Because gradients are real, stale updates genuinely perturb convergence —
ASP pays an accuracy cost, BSP pays a time cost, and SSP/DSSP trade between
them exactly as in the paper; because time is simulated, heterogeneous GPU
clusters (Figure 4, Table I) can be reproduced deterministically on a
laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.core.factory import paradigm_label
from repro.data.dataset import ArrayDataset
from repro.metrics.convergence import time_to_accuracy
from repro.metrics.throughput import (
    EMPTY_PERCENTILES,
    PercentileSummary,
    ThroughputSummary,
    iteration_throughput,
    percentile_summary,
)
from repro.metrics.tracker import ExperimentTracker
from repro.nn.module import Module
from repro.optim.schedules import MultiStepSchedule
from repro.ps.faults import parse_fault_specs
from repro.ps.session import ServerSession, TrainingPlan, TrainingResult, assemble, plan_codec
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
from repro.simulation.workload import estimate_model_cost
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
        Network topology for the *time* components: a preset name
        (``"flat"``, ``"two-rack"``, ``"tail-heavy"``), an inline topology
        dict, or a prebuilt :class:`repro.simulation.topology.Topology`.
        ``None`` means ``"flat"``: one private link per worker, built from
        that worker's own :class:`NetworkModel`.  Shared rack uplinks queue
        transfers FIFO, and every queueing delay lands in
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
        if self.cluster.worker_ids != [f"worker-{i}" for i in range(self.cluster.num_workers)]:
            raise ValueError(
                "the simulator runs the shared training plan, whose workers are named "
                f"worker-0 … worker-(n-1) in cluster order; got {self.cluster.worker_ids}"
            )
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.num_server_shards <= 0:
            raise ValueError("num_server_shards must be positive")
        if self.max_updates is not None and self.max_updates <= 0:
            raise ValueError("max_updates must be positive when given")
        if self.epoch_accounting not in ("global", "per_worker"):
            raise ValueError(
                f"epoch_accounting must be 'global' or 'per_worker', got {self.epoch_accounting!r}"
            )
        self.faults = tuple(self.faults)
        # Fail fast: a typo in the paradigm, codec, aggregator or fault plan
        # must surface here, at config construction, not minutes into a run.
        self.plan()

    def plan(self) -> TrainingPlan:
        """The run as the plan every backend shares (validated on construction)."""
        return TrainingPlan(
            paradigm=self.paradigm,
            paradigm_kwargs=dict(self.paradigm_kwargs),
            num_workers=self.cluster.num_workers,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            evaluate_every_pushes=max(self.evaluate_every_updates, 0),
            dtype=self.dtype,
            compression=self.compression,
            aggregation=self.aggregation,
            faults=self.faults,
            seed=self.seed,
        )


@dataclass
class SimulationResult(TrainingResult):
    """A :class:`TrainingResult` in virtual seconds, plus what only the simulator sees.

    ``wall_time`` and ``evaluation_times`` are virtual; everything the result
    has always offered (``times``, ``total_virtual_time``, ``total_updates``,
    the ``*_per_worker`` dicts, ...) stays readable as views of the shared
    fields.
    """

    paradigm: str = ""
    paradigm_label: str = ""
    throughput: ThroughputSummary | None = None
    tracker: ExperimentTracker = field(default_factory=ExperimentTracker)
    trace: SimulationTrace = field(default_factory=SimulationTrace)
    #: Tail statistics of per-worker iteration intervals (push-to-push
    #: virtual time, including synchronization waits) pooled across workers.
    iteration_time_summary: PercentileSummary = EMPTY_PERCENTILES
    #: FIFO queueing records of the topology's shared links (one dict per
    #: shared-link traversal: link, arrival, start, wait, nbytes, tag);
    #: empty when the topology has no shared links (``flat``).
    queue_trace: list = field(default_factory=list)

    # The evaluation curve and the server's counters, under the names the
    # simulator has always reported them by.
    times = property(lambda self: np.asarray(self.evaluation_times, dtype=np.float64))
    accuracies = property(lambda self: np.asarray(self.evaluation_accuracies, dtype=np.float64))
    losses = property(lambda self: np.asarray(self.evaluation_losses, dtype=np.float64))
    total_virtual_time = property(lambda self: self.wall_time)
    total_updates = property(lambda self: self.server_statistics["store_version"])
    staleness_summary = property(lambda self: self.server_statistics["update_staleness"])
    controller_decisions = property(
        lambda self: self.server_statistics["controller_invocations"]
    )

    def _per_worker(self, name: str) -> dict:
        """One :class:`~repro.ps.messages.WorkerReport` field, keyed by worker id."""
        return {report.worker_id: getattr(report, name) for report in self.worker_reports}

    wait_time_per_worker = property(lambda self: self._per_worker("total_wait_time"))
    iterations_per_worker = property(lambda self: self._per_worker("iterations"))
    mean_loss_per_worker = property(lambda self: self._per_worker("mean_loss"))
    pushed_wire_bytes_per_worker = property(lambda self: self._per_worker("pushed_wire_bytes"))
    pushed_raw_bytes_per_worker = property(lambda self: self._per_worker("pushed_raw_bytes"))
    pulled_bytes_per_worker = property(lambda self: self._per_worker("pulled_bytes"))

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
        self.plan = config.plan()
        self.workload = SimpleNamespace(
            model_builder=model_builder, train_dataset=train_dataset, test_dataset=test_dataset
        )

    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        config, plan = self.config, self.plan
        train_dataset = self.workload.train_dataset
        schedule = None
        if config.lr_milestones:
            schedule = MultiStepSchedule(
                config.learning_rate, config.lr_milestones, decay=config.lr_decay
            )
        server, replicas, evaluator = assemble(
            plan,
            self.workload,
            num_shards=config.num_server_shards,
            shard_strategy=config.shard_strategy,
            schedule=schedule,
        )
        store = server.store
        workers = {worker.worker_id: worker for worker in replicas}
        # Mirror the store's packed layout in every replica so full pulls
        # move one buffer per shard instead of N named arrays.
        for worker in replicas:
            worker.attach_flat_layout(store.flat_layouts)
        profiler = None
        if config.profile:
            from repro.utils.profiler import LayerProfiler

            profiler = LayerProfiler(replicas[0].model, loss_fn=replicas[0].loss_fn).attach()

        cost = config.timing_cost or estimate_model_cost(
            replicas[0].model, train_dataset.sample_shape
        )
        # Per-shard transfer cost: the simulated push/pull is gated by the
        # most-loaded shard, with the split taken from the store's
        # partition (one shard: the whole payload).  Empty shards transfer
        # nothing and cannot gate the operation.
        total_bytes = max(store.nbytes, 1)
        shard_fractions = tuple(
            nbytes / total_bytes for nbytes in store.shard_nbytes if nbytes > 0
        ) or (1.0,)
        # The codec's a-priori estimate of encoded-vs-dense push bytes;
        # clamped because the time model treats >1 as a spec error (an
        # inflating codec still pays at most the dense charge).
        codec = plan_codec(plan)
        push_wire_fraction = 1.0 if codec is None else min(1.0, codec.wire_fraction())
        time_model = TopologyTimeModel(
            cost,
            batch_size=config.timing_batch_size or config.batch_size,
            topology=build_topology(
                "flat" if config.topology is None else config.topology,
                {wid: config.cluster.worker(wid).network for wid in plan.worker_ids},
            ),
            time_scale=config.time_scale,
            shard_fractions=shard_fractions,
            push_wire_fraction=push_wire_fraction,
            comm_pattern=config.comm_pattern,
            worker_ids=plan.worker_ids,
        )
        timing_rng = RngStream(config.seed).get("timing") if config.timing_jitter else None

        partition_size = len(train_dataset) // config.cluster.num_workers
        iterations_per_worker = max(
            1, int(np.ceil(config.epochs * partition_size / config.batch_size))
        )
        total_update_budget = max(
            1, int(np.ceil(config.epochs * len(train_dataset) / config.batch_size))
        )
        if config.epoch_accounting == "global":
            # Workers keep iterating until the global update budget is spent;
            # a fast worker may contribute more updates than its own share.
            quota = dict.fromkeys(workers, total_update_budget)
            max_updates = config.max_updates or total_update_budget
        else:
            quota = dict.fromkeys(workers, iterations_per_worker)
            max_updates = config.max_updates or (iterations_per_worker * len(workers))

        clock = VirtualClock()
        queue = EventQueue()
        trace = SimulationTrace()
        tracker = ExperimentTracker()

        def evaluate_fn(state) -> tuple[float, float]:
            """The plan's evaluator; every point also lands in tracker and trace."""
            accuracy, loss = evaluator(state)
            tracker.record("accuracy", clock.now, accuracy, step=store.version)
            tracker.record("test_loss", clock.now, loss, step=store.version)
            trace.record(clock.now, "evaluation", accuracy=accuracy, loss=loss)
            return accuracy, loss

        session = ServerSession(
            server,
            plan.worker_ids,
            evaluate_fn=evaluate_fn,
            evaluate_every_pushes=plan.evaluate_every_pushes,
            clock=lambda: clock.now,
        )

        blocked_since: dict[str, float] = {}
        wait_time = dict.fromkeys(workers, 0.0)
        iterations_done = dict.fromkeys(workers, 0)
        loss_sum = dict.fromkeys(workers, 0.0)
        samples_processed = 0
        fault_plan = parse_fault_specs(plan.faults, plan.worker_ids)
        crash_at = fault_plan.crash_at()

        def iteration_time(worker_id: str, now: float) -> float:
            duration = time_model.iteration_time(
                config.cluster.worker(worker_id),
                rng=timing_rng,
                now=now,
                round_index=iterations_done[worker_id],
            )
            if config.slowdown_schedule is not None:
                factor = float(config.slowdown_schedule(worker_id, now))
                if factor <= 0:
                    raise ValueError(
                        f"slowdown_schedule returned non-positive factor {factor} "
                        f"for worker {worker_id!r}"
                    )
                duration *= factor
            flaky = fault_plan.flaky_for(worker_id)
            if flaky is not None and flaky.slow(iterations_done[worker_id]):
                duration *= flaky.scale
            return duration

        def resume(worker_id: str, now: float) -> None:
            """Deliver an OK: pull (a delta when the store can), schedule the next push."""
            worker = workers[worker_id]
            known = worker.local_version if store.supports_delta_pull else None
            worker.load_reply(store.pull(known))
            if iterations_done[worker_id] < quota[worker_id]:
                arrival = now + iteration_time(worker_id, now)
                queue.push(Event(time=arrival, kind=EventKind.PUSH_ARRIVAL, worker_id=worker_id))

        def release(worker_ids, now: float) -> None:
            """Previously blocked workers get their OK; their wait ends now."""
            for worker_id in worker_ids:
                waited = now - blocked_since.pop(worker_id, now)
                wait_time[worker_id] += waited
                trace.record(now, "release", worker_id=worker_id, wait_time=waited)
                resume(worker_id, now)

        # Initial pulls and first pushes.  One pull per worker: replies are
        # consumed (and their copy-on-write leases released) by load_reply,
        # so a shared reply must not outlive the first consumer.
        for worker_id, worker in workers.items():
            worker.load_reply(store.pull())
            queue.push(
                Event(
                    time=iteration_time(worker_id, 0.0),
                    kind=EventKind.PUSH_ARRIVAL,
                    worker_id=worker_id,
                )
            )
        session.evaluate(0.0)
        session.start()

        while queue and store.version < max_updates:
            event = queue.pop()
            now = clock.advance_to(event.time)
            if event.kind is not EventKind.PUSH_ARRIVAL:
                continue
            worker_id = event.worker_id
            crash_clock = crash_at.get(worker_id)
            if crash_clock is not None and iterations_done[worker_id] >= crash_clock:
                # The worker dies at its fault clock: its push never lands,
                # any staged (unapplied) contribution is rejected, and the
                # policy re-bounds exactly as for a real runtime death.
                trace.record(now, "crash", worker_id=worker_id)
                release(session.leave(worker_id, time=now), now)
                continue
            worker = workers[worker_id]

            computation = worker.compute_gradients()
            samples_processed += computation.samples
            server.set_progress(samples_processed / max(len(train_dataset), 1))

            flat, encoded, codec_name = worker.prepare_push(computation)
            header = {
                "base_version": computation.base_version,
                "timestamp": now,
                "loss": computation.loss,
                "codec": codec_name,
            }
            response = session.push(
                worker_id,
                header,
                named=computation.gradients,
                flat=flat,
                encoded=encoded,
                buffers=computation.buffers,
            )
            iterations_done[worker_id] += 1
            loss_sum[worker_id] += computation.loss
            tracker.record("train_loss", now, computation.loss, step=store.version)
            trace.record(
                now,
                "push",
                worker_id=worker_id,
                staleness=response.staleness,
                version=response.new_version,
            )
            if response.release_now:
                resume(worker_id, now)
            else:
                blocked_since[worker_id] = now
                trace.record(now, "block", worker_id=worker_id)
            release(response.released_workers, now)

        # Any still-blocked workers are released at the end of the run so
        # their waiting time up to the final event is accounted for.
        final_time = clock.now
        for worker_id, since in blocked_since.items():
            wait_time[worker_id] += final_time - since
        profiles = {}
        if profiler is not None:
            profiler.detach()
            profiled = replicas[0].worker_id
            profiles[profiled] = {"worker_id": profiled, **profiler.as_dict()}
        ring = config.comm_pattern == "ring_allreduce"
        for worker_id, worker in workers.items():
            done = iterations_done[worker_id]
            report = {
                "worker_id": worker_id,
                "iterations": done,
                "samples_processed": worker.samples_processed,
                "total_wait_time": wait_time[worker_id],
                # The simulator does not decompose per-worker busy time, so
                # "compute" is everything that was not synchronization
                # waiting (iteration compute plus communication).
                "total_compute_time": max(final_time - wait_time[worker_id], 0.0),
                "mean_loss": loss_sum[worker_id] / done if done else 0.0,
                "pushed_wire_bytes": worker.pushed_wire_bytes,
                "pushed_raw_bytes": worker.pushed_raw_bytes,
                "pulled_bytes": worker.pulled_bytes,
            }
            if ring:
                # Model-costed ring accounting: each round wires
                # 2*(n-1)/n * payload per worker and pulls nothing from a
                # server (the substrate's PS transfers never happen on the
                # simulated wire).  Raw bytes stay the dense payload.
                ring_wire = time_model.ring_wire_bytes_per_iteration()
                report["pushed_wire_bytes"] = int(round(done * ring_wire))
                report["pushed_raw_bytes"] = int(round(done * float(cost.parameter_bytes)))
                report["pulled_bytes"] = 0
            session.done(worker_id, report, profile=profiles.get(worker_id))
        # The shared end of run: the buffered aggregator's tail window, then
        # the final evaluation (skipped when one already sits at this instant).
        result = session.finish()

        # Tail statistics of iteration intervals: per-worker push-to-push
        # virtual time (the first interval measured from t=0), pooled across
        # workers — this is what the topology sweeps' p50/p90/p99 report.
        interval_samples: list[float] = []
        for worker_id in workers:
            times = trace.push_times(worker_id)
            if times.size:
                interval_samples.extend(np.diff(times, prepend=0.0).tolist())

        label = paradigm_label(config.paradigm, config.paradigm_kwargs)
        _LOGGER.info(
            "%s finished: %.0f virtual seconds, %d updates, final accuracy %.3f",
            label,
            final_time,
            store.version,
            result.final_accuracy,
        )
        return SimulationResult(
            **vars(result),
            paradigm=config.paradigm,
            paradigm_label=label,
            throughput=iteration_throughput(
                total_updates=store.version,
                total_time=max(final_time, 1e-12),
                samples_per_update=config.batch_size,
            ),
            tracker=tracker,
            trace=trace,
            iteration_time_summary=percentile_summary(interval_samples),
            queue_trace=list(time_model.state.queue_trace),
        )


def simulate_training(
    config: SimulationConfig,
    model_builder: Callable[[np.random.Generator], Module],
    train_dataset: ArrayDataset,
    test_dataset: ArrayDataset,
) -> SimulationResult:
    """Convenience wrapper: build and run a :class:`SimulatedTraining`."""
    return SimulatedTraining(config, model_builder, train_dataset, test_dataset).run()
