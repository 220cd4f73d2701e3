"""Simulated distributed training: virtual time, real gradients.

The simulator runs the one server protocol — the same
:class:`repro.ps.session.ServerSession`, built from the same
:class:`~repro.ps.plan.TrainingPlan` by the same recipe
(:func:`repro.ps.plan.assemble`), as the wall-clock runtimes — with
a :class:`VirtualClock` as the session's time source, and
:class:`SimulationOptions` for what only a simulation has: the modelled
cluster, the time model and the epoch budget.  What is the
simulator's own is *when* things happen, decided by a discrete-event loop:

1. every worker loads the initial weights and schedules its first *push
   arrival* one simulated iteration later (compute time on its device plus
   push/pull time on its link);
2. at the earliest push arrival the worker's gradient — computed *for real*
   from the weights of its last OK — goes to ``session.dispatch`` as a
   ``push`` event: applied, the policy decides who goes on, the global
   model is evaluated on the plan's cadence;
3. each released worker (the pusher first) loads the OK the session builds
   (``session.reply``) and schedules its next push; a blocked one waits
   for a later push or a crash (a ``departure`` event);
4. ``session.finish`` takes every report (nobody deregisters at the end)
   and closes the run exactly as it closes a wall-clock one.

Each worker side is the shared :class:`~repro.ps.session.WorkerLoop`,
driven as a step machine on the virtual clock: this loop decides *when*
each OK is delivered, the step machine counts, stamps, times the wait and
reports.  Its steps are :func:`~repro.ps.session.replica_step`, run by a
:class:`~repro.simulation.pool.ReplicaPool` anywhere between the OK and the
push arrival — in forked helpers, bit for bit, when the run is long enough.
Because gradients are real, stale updates genuinely perturb convergence;
because time is simulated, heterogeneous clusters (Figure 4, Table I) are
reproduced deterministically on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from repro.metrics.throughput import percentile_summary
from repro.optim.schedules import MultiStepSchedule
from repro.ps.plan import TrainingPlan, assemble, plan_codec
from repro.ps.result import RunResult
from repro.ps.session import ServerEvent, WorkerLoop
from repro.simulation.cluster import ClusterSpec
from repro.simulation.clock import VirtualClock
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.pool import ReplicaPool
from repro.simulation.topology import (
    Topology,
    TopologyTimeModel,
    build_topology,
    validate_topology_spec,
)
from repro.simulation.workload import estimate_model_cost
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

__all__ = ["SimulationOptions", "SimulatedTraining"]

_LOGGER = get_logger("simulation.trainer")


@dataclass(frozen=True, kw_only=True)
class SimulationOptions:
    """What only the simulator reads, next to the run's :class:`TrainingPlan`.

    The plan says *what* trains — paradigm, batch size, SGD, codec,
    aggregator, faults, shards, evaluation cadence, seed — exactly as for
    the wall-clock backends (its ``slowdowns`` multiply a worker's iteration
    time; a crash fault deregisters the worker at its fault clock; a flaky
    one multiplies its iteration time by ``scale`` in slow phases; a codec's
    push is charged its wire fraction of the dense payload).  These options
    say how long it takes in virtual time, and when it stops.

    Attributes
    ----------
    cluster:
        The simulated machines (device profiles, network links, GPUs per
        worker), one per plan worker, named ``worker-0`` … in order.
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
    max_updates:
        Optional hard cap on the number of server updates.
    timing_jitter:
        Whether per-iteration times receive random jitter (off for exactly
        reproducible timing analyses).
    timing_cost, timing_batch_size:
        The :class:`repro.simulation.workload.ModelCost` and batch size the
        *time* components use (default: estimated from the trained model,
        and the plan's ``batch_size``).  The harness passes the paper-scale
        architecture's, so the compute-to-communication ratio matches the
        paper's hardware while a scaled-down model does the arithmetic.
    slowdown_schedule:
        Optional ``(worker_id, virtual_time) -> multiplier`` on that
        worker's next iteration time: fluctuating networks and transient
        stragglers, the paper's future work (see
        :func:`repro.experiments.ablations.fluctuating_environment_ablation`).
    topology:
        A preset name (``"flat"``, ``"two-rack"``, ``"tail-heavy"``), an
        inline topology dict or a :class:`repro.simulation.topology.Topology`
        for the *time* components.  ``None`` means ``"flat"``: one private
        link per worker, from its own :class:`NetworkModel`.  Shared uplinks
        queue FIFO, and every delay lands in ``RunResult.queue_trace``.
        It models a single server endpoint, so the plan keeps one shard.
    """

    cluster: ClusterSpec
    epochs: float = 3.0
    epoch_accounting: str = "global"
    lr_milestones: tuple[float, ...] = ()
    lr_decay: float = 0.1
    max_updates: int | None = None
    timing_jitter: bool = True
    timing_cost: object | None = None
    timing_batch_size: int | None = None
    slowdown_schedule: Callable[[str, float], float] | None = None
    topology: str | dict | Topology | None = None

    def __post_init__(self) -> None:
        if self.topology is not None and not isinstance(self.topology, Topology):
            validate_topology_spec(self.topology)
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.max_updates is not None and self.max_updates <= 0:
            raise ValueError("max_updates must be positive when given")
        if self.epoch_accounting not in ("global", "per_worker"):
            raise ValueError(
                f"epoch_accounting must be 'global' or 'per_worker', got {self.epoch_accounting!r}"
            )


class SimulatedTraining:
    """Discrete-event simulation of one distributed training run.

    ``workload`` needs ``model_builder``, ``train_dataset`` and
    ``test_dataset``; ``options`` must model exactly the plan's workers.
    """

    def __init__(self, plan: TrainingPlan, workload, options: SimulationOptions) -> None:
        if options.cluster.worker_ids != plan.worker_ids:
            raise ValueError(
                "the simulator runs the plan's workers, named worker-0 … worker-(n-1) "
                f"in cluster order: the plan has {plan.num_workers}, "
                f"the cluster {options.cluster.worker_ids}"
            )
        if options.topology is not None and plan.num_shards != 1:
            raise ValueError(
                "topology-aware timing models a single server endpoint; "
                "use num_shards=1 with a topology"
            )
        self.plan = plan
        self.workload = workload
        self.options = options

    def run(self) -> RunResult:
        """Execute the simulation and return its result."""
        options, plan = self.options, self.plan
        train_dataset = self.workload.train_dataset
        schedule = None
        if options.lr_milestones:
            schedule = MultiStepSchedule(
                plan.learning_rate, options.lr_milestones, decay=options.lr_decay
            )
        clock = VirtualClock()
        session, replicas = assemble(
            plan, self.workload, schedule=schedule, clock=lambda: clock.now
        )
        store = session.store
        workers = {worker.worker_id: worker for worker in replicas}
        # Mirror the store's packed layout in every replica so full pulls
        # move one buffer per shard instead of N named arrays.
        for worker in replicas:
            worker.attach_flat_layout(store.flat_layouts)
        profiler = None
        if plan.profile:
            from repro.utils.profiler import LayerProfiler

            profiler = LayerProfiler(replicas[0].model, loss_fn=replicas[0].loss_fn).attach()

        cost = options.timing_cost or estimate_model_cost(
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
            batch_size=options.timing_batch_size or plan.batch_size,
            topology=build_topology(
                "flat" if options.topology is None else options.topology,
                {wid: options.cluster.worker(wid).network for wid in plan.worker_ids},
            ),
            shard_fractions=shard_fractions,
            push_wire_fraction=push_wire_fraction,
        )
        timing_rng = RngStream(plan.seed).get("timing") if options.timing_jitter else None

        if options.epoch_accounting == "global":
            # Workers keep iterating until the global update budget is spent;
            # a fast worker may contribute more updates than its own share.
            quota = max(1, int(np.ceil(options.epochs * len(train_dataset) / plan.batch_size)))
            max_updates = options.max_updates or quota
        else:
            partition_size = len(train_dataset) // plan.num_workers
            quota = max(1, int(np.ceil(options.epochs * partition_size / plan.batch_size)))
            max_updates = options.max_updates or (quota * len(workers))

        queue = EventQueue()
        push_trace: list[tuple[float, str, float]] = []

        def iteration_time(worker_id: str, now: float) -> float:
            done = loops[worker_id].completed
            duration = time_model.iteration_time(
                options.cluster.worker(worker_id), rng=timing_rng, now=now
            )
            factor = float(plan.slowdowns.get(worker_id, 1.0))
            if options.slowdown_schedule is not None:
                factor *= float(options.slowdown_schedule(worker_id, now))
            if factor <= 0:
                raise ValueError(
                    f"non-positive slowdown factor {factor} for worker {worker_id!r}"
                )
            duration *= factor
            fault = plan.fault_plan.for_worker(worker_id)
            if fault is not None and fault.slow(done):
                duration *= fault.scale
            return duration

        def schedule(worker_id: str, now: float) -> None:
            """The replica holds its OK: its next push arrives one iteration later."""
            arrival = now + iteration_time(worker_id, now)
            queue.push(Event(time=arrival, kind=EventKind.PUSH_ARRIVAL, worker_id=worker_id))
            pool.submit(worker_id)

        def resume(worker_ids, now: float) -> None:
            """Deliver each worker's OK (the session's reply), schedule its next push."""
            for worker_id in worker_ids:
                loop = loops[worker_id]
                loop.deliver(session.reply(worker_id).pull)
                if loop.completed < loop.iterations:
                    schedule(worker_id, now)

        # Replica steps run between a worker's OK and its push arrival, in
        # forked helpers when the run is long enough to repay them.
        with ReplicaPool(workers, store.flat_layouts, max_updates, profiler) as pool:
            # Each replica's worker side is the shared step machine, on the
            # virtual clock, its steps collected from the pool.  Initial pulls
            # and first pushes: one pull per worker, because replies are
            # consumed (and their copy-on-write leases released) by load_reply,
            # so a shared reply must not outlive the first consumer.
            loops: dict[str, WorkerLoop] = {}
            for worker_id, worker in workers.items():
                loops[worker_id] = WorkerLoop(
                    worker_id, None, iterations=quota, wait_timeout=plan.wait_timeout,
                    worker=worker, fault_plan=plan.fault_plan, clock=lambda: clock.now,
                    steps=partial(pool.collect, worker_id),
                )
                worker.load_reply(session.reply(worker_id, welcome=True).pull)
                schedule(worker_id, 0.0)
            session.evaluate(0.0)
            session.start()

            while queue and store.version < max_updates:
                event = queue.pop()
                now = clock.advance_to(event.time)
                worker_id = event.worker_id
                loop = loops[worker_id]
                if loop.crash_due():
                    # The worker dies at its fault clock: its push never lands,
                    # any staged (unapplied) contribution is rejected, and the
                    # policy re-bounds exactly as for a real runtime death.
                    departure = ServerEvent(worker_id, "departure", {"time": now})
                    resume(session.dispatch(departure).to_release, now)
                    continue
                step = loop.step()
                computation = step.computation
                gradients = dict(flat=step.flat, encoded=step.encoded, buffers=computation.buffers)
                push = ServerEvent(worker_id, "push", loop.header(step), gradients)
                outcome = session.dispatch(push)
                loop.sent()
                push_trace.append((now, worker_id, float(computation.loss)))
                resume(outcome.to_release, now)

            profile = pool.profile

        final_time = clock.now
        if profiler is not None:
            profiler.detach()
            profile = {"worker_id": replicas[0].worker_id, **profile}
        reports = []
        for loop in loops.values():
            # A push still unanswered has waited until the final event.
            report = loop.report()
            # "Compute" is everything that was not synchronization waiting:
            # the simulator does not split a worker's busy time.
            report["total_compute_time"] = max(final_time - report["total_wait_time"], 0.0)
            reports.append(report)
        # The shared end of run: the buffered aggregator's tail window, then
        # the final evaluation (skipped when one already sits at this instant).
        result = replace(
            session.finish(reports=reports, profile=profile),
            queue_trace=list(time_model.state.queue_trace),
            push_trace=push_trace,
        )
        # Tail statistics of iteration intervals: per-worker push-to-push
        # virtual time (the first interval measured from t=0), pooled across
        # workers — this is what the topology sweeps' p50/p90/p99 report.
        intervals = [
            gap
            for worker_id in workers
            for gap in np.diff(result.push_times(worker_id), prepend=0.0).tolist()
        ]
        _LOGGER.info(
            "%s finished: %.0f virtual seconds, %d updates, final accuracy %.3f",
            result.paradigm_label,
            final_time,
            store.version,
            result.final_accuracy,
        )
        return replace(result, iteration_time_percentiles=percentile_summary(intervals))
