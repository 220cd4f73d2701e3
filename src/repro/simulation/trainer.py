"""Simulated distributed training: virtual time, real gradients.

The simulator runs the one server protocol — the same
:class:`repro.ps.session.ServerSession`, built by the same plan recipes
(:func:`repro.ps.session.assemble`), as the three wall-clock runtimes — with
a :class:`VirtualClock` as the session's time source.  What is the
simulator's own is *when* things happen, decided by a discrete-event loop:

1. every worker loads the initial weights and schedules its first *push
   arrival* one simulated iteration later (compute time on its device plus
   push/pull time on its link);
2. at the earliest push arrival the worker's gradient — computed *for real*
   from the weights of its last OK — goes to ``session.push``, which applies
   it, lets the policy decide whether the worker continues or waits, and
   evaluates the global model on the plan's cadence;
3. a released worker loads the OK the session builds (``session.reply``)
   and schedules its next push; a blocked one is released (its wait
   recorded) when a later push or a crash (``session.leave``) allows;
4. ``session.finish`` closes the run exactly as it closes a wall-clock one.

The worker side is this loop, not a :class:`~repro.ps.session.WorkerLoop`,
whose ``await_ok`` would hide what the simulator decides: when each OK is
delivered.  Its steps are :func:`~repro.ps.session.replica_step`, run by a
:class:`~repro.simulation.pool.ReplicaPool` anywhere between the OK and the
push arrival — in forked helpers, bit for bit, when the run is long enough.
Because gradients are real, stale updates genuinely perturb convergence;
because time is simulated, heterogeneous clusters (Figure 4, Table I) are
reproduced deterministically on a laptop.
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
from repro.ps.session import (
    ServerSession,
    Tally,
    TrainingPlan,
    TrainingResult,
    assemble,
    plan_codec,
)
from repro.simulation.cluster import ClusterSpec
from repro.simulation.clock import VirtualClock
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.pool import ReplicaPool
from repro.simulation.topology import (
    Topology,
    TopologyTimeModel,
    build_topology,
    validate_comm_pattern,
    validate_ring,
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

    The fields :meth:`plan` passes on — paradigm and its kwargs, batch
    size, SGD hyper-parameters, ``dtype``, ``compression``, ``aggregation``,
    ``faults`` and ``seed`` — mean what they mean in
    :class:`~repro.ps.session.TrainingPlan`.  A crash fault deregisters the
    worker at its fault clock; a flaky one multiplies its iteration time by
    ``scale`` in slow phases; a codec's push is charged its wire fraction of
    the dense payload.

    Attributes
    ----------
    cluster:
        The simulated machines (device profiles, network links, GPUs per
        worker).
    epochs, epoch_accounting:
        Epoch budget (the paper trains 300).  ``"global"`` (default) stops
        once the server has applied ``epochs * len(train) / batch_size``
        updates, whoever produced them — fast workers contribute more and
        asynchronous-like paradigms finish earlier, as in Figure 4.
        ``"per_worker"``: every worker runs exactly its own share, so the
        slowest worker gates every paradigm.
    lr_milestones, lr_decay:
        Epochs at which the learning rate is multiplied by ``lr_decay``
        (the paper: (200, 250) and 0.1).
    evaluate_every_updates:
        Evaluate every N server updates; <= 0 only at the start and end.
    max_updates:
        Optional hard cap on the number of server updates.
    time_scale:
        Uniform stretch applied to all simulated durations.
    timing_jitter:
        Whether per-iteration times receive random jitter (off for exactly
        reproducible timing analyses).
    timing_cost, timing_batch_size:
        The :class:`repro.simulation.workload.ModelCost` and batch size the
        *time* components use (default: estimated from the trained model,
        and ``batch_size``).  The harness passes the paper-scale
        architecture's, so the compute-to-communication ratio matches the
        paper's hardware while a scaled-down model does the arithmetic.
    slowdown_schedule:
        Optional ``(worker_id, virtual_time) -> multiplier`` on that
        worker's next iteration time: fluctuating networks and transient
        stragglers, the paper's future work (see
        :func:`repro.experiments.ablations.fluctuating_environment_ablation`).
    num_server_shards, shard_strategy:
        Shards of the store (:class:`repro.ps.sharding.ShardedKeyValueStore`)
        and their key partitioning (``"size"`` or ``"hash"``).  With more
        than one, workers pull copy-on-write deltas and the most-loaded
        shard gates the simulated push/pull.
    topology:
        A preset name (``"flat"``, ``"two-rack"``, ``"tail-heavy"``), an
        inline topology dict or a :class:`repro.simulation.topology.Topology`
        for the *time* components.  ``None`` means ``"flat"``: one private
        link per worker, from its own :class:`NetworkModel`.  Shared uplinks
        queue FIFO, and every delay lands in ``SimulationResult.queue_trace``.
    comm_pattern:
        ``"ps"`` (default): a push and a pull per iteration.
        ``"ring_allreduce"``: ``2*(n-1)`` chunked ring steps per BSP round
        (:func:`~repro.simulation.topology.validate_ring` lists what it
        excludes).  The gradient math still flows through the server, whose
        sequential sum a ring reduce-scatter reproduces bit for bit; only
        the costed time and wire bytes change.
    profile:
        Attach a :class:`repro.utils.profiler.LayerProfiler` to the first
        worker's replica and record it in ``SimulationResult.profile``.
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
            validate_ring(
                self.paradigm,
                self.cluster.num_workers,
                self.num_server_shards,
                compression=self.compression,
                aggregation=self.aggregation,
                faults=self.faults,
            )
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

        if config.epoch_accounting == "global":
            # Workers keep iterating until the global update budget is spent;
            # a fast worker may contribute more updates than its own share.
            quota = max(1, int(np.ceil(config.epochs * len(train_dataset) / config.batch_size)))
            max_updates = config.max_updates or quota
        else:
            partition_size = len(train_dataset) // config.cluster.num_workers
            quota = max(1, int(np.ceil(config.epochs * partition_size / config.batch_size)))
            max_updates = config.max_updates or (quota * len(workers))

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
        # Reports count the steps whose pushes landed, not those run ahead.
        tallies = {worker_id: Tally() for worker_id in workers}
        fault_plan = parse_fault_specs(plan.faults, plan.worker_ids)
        crash_at = fault_plan.crash_at()

        def iteration_time(worker_id: str, now: float) -> float:
            duration = time_model.iteration_time(
                config.cluster.worker(worker_id),
                rng=timing_rng,
                now=now,
                round_index=tallies[worker_id].iterations,
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
            if flaky is not None and flaky.slow(tallies[worker_id].iterations):
                duration *= flaky.scale
            return duration

        def schedule(worker_id: str, now: float) -> None:
            """The replica holds its OK: its next push arrives one iteration later."""
            arrival = now + iteration_time(worker_id, now)
            queue.push(Event(time=arrival, kind=EventKind.PUSH_ARRIVAL, worker_id=worker_id))
            pool.submit(worker_id)

        def resume(worker_id: str, now: float) -> None:
            """Deliver an OK (the session's reply), schedule the next push."""
            workers[worker_id].load_reply(session.reply(worker_id).pull)
            if tallies[worker_id].iterations < quota:
                schedule(worker_id, now)

        def release(worker_ids, now: float) -> None:
            """Previously blocked workers get their OK; their wait ends now."""
            for worker_id in worker_ids:
                waited = now - blocked_since.pop(worker_id, now)
                wait_time[worker_id] += waited
                trace.record(now, "release", worker_id=worker_id, wait_time=waited)
                resume(worker_id, now)

        # Replica steps run between a worker's OK and its push arrival, in
        # forked helpers when the run is long enough to repay them.
        with ReplicaPool(workers, store.flat_layouts, max_updates, profiler) as pool:
            # Initial pulls and first pushes.  One pull per worker: replies are
            # consumed (and their copy-on-write leases released) by load_reply,
            # so a shared reply must not outlive the first consumer.
            for worker_id, worker in workers.items():
                worker.load_reply(session.reply(worker_id, welcome=True).pull)
                schedule(worker_id, 0.0)
            session.evaluate(0.0)
            session.start()

            while queue and store.version < max_updates:
                event = queue.pop()
                now = clock.advance_to(event.time)
                worker_id = event.worker_id
                crash_clock = crash_at.get(worker_id)
                if crash_clock is not None and tallies[worker_id].iterations >= crash_clock:
                    # The worker dies at its fault clock: its push never lands,
                    # any staged (unapplied) contribution is rejected, and the
                    # policy re-bounds exactly as for a real runtime death.
                    trace.record(now, "crash", worker_id=worker_id)
                    release(session.leave(worker_id, time=now), now)
                    continue
                step = pool.collect(worker_id)
                computation = step.computation
                tallies[worker_id].add(step)
                samples = sum(tally.samples for tally in tallies.values())
                server.set_progress(samples / max(len(train_dataset), 1))
                header = {
                    "base_version": computation.base_version,
                    "timestamp": now,
                    "loss": computation.loss,
                    "codec": step.codec,
                }
                response = session.push(
                    worker_id,
                    header,
                    flat=step.flat,
                    encoded=step.encoded,
                    buffers=computation.buffers,
                )
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

            profile = pool.profile

        # Workers still blocked at the end have waited until the final event.
        final_time = clock.now
        for worker_id, since in blocked_since.items():
            wait_time[worker_id] += final_time - since
        if profiler is not None:
            profiler.detach()
            profile = {"worker_id": replicas[0].worker_id, **profile}
        for worker_id, worker in workers.items():
            done = tallies[worker_id].iterations
            # "Compute" is everything that was not synchronization waiting:
            # the simulator does not split a worker's busy time.
            report = tallies[worker_id].report(
                worker_id,
                wait=wait_time[worker_id],
                compute=max(final_time - wait_time[worker_id], 0.0),
                pulled=worker.pulled_bytes,
            )
            if config.comm_pattern == "ring_allreduce":
                # Model-costed: 2*(n-1)/n * payload per round on the wire and
                # no server pulls; raw bytes stay the dense payload.
                ring_wire = time_model.ring_wire_bytes_per_iteration()
                report["pushed_wire_bytes"] = int(round(done * ring_wire))
                report["pushed_raw_bytes"] = int(round(done * float(cost.parameter_bytes)))
                report["pulled_bytes"] = 0
            session.done(worker_id, report, profile=profile if worker is replicas[0] else None)
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
