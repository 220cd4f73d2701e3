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
  result.
* :class:`ServerLoop` drives a session from messages for the process and
  tcp runtimes, over a :class:`Hub` — the server end of their links, and
  the only thing such a runtime implements for its server.  The threaded
  runtime and the simulator call the session directly.

What a run *is* — the :class:`~repro.ps.plan.TrainingPlan` and the recipe
that builds its server, evaluator and replicas — lives in
:mod:`repro.ps.plan`; this module is only the protocol.

Nothing here knows which runtime is calling: a push without a sequence
number simply skips dedupe, a link that never answers :class:`Resume` never
triggers a rebuild.
"""

from __future__ import annotations

import os
import selectors
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Mapping, Protocol

import numpy as np

from repro.optim.sgd import SGD
from repro.ps.faults import FaultPlan
from repro.ps.messages import PullReply, PushRequest, WorkerReport
from repro.ps.plan import (
    TrainingPlan,
    WorkloadPlan,
    build_evaluator,
    build_server,
    replica_builder,
)
from repro.ps.server import AppliedPush, ParameterServer, PushResponse, decode_push
from repro.ps.sharding import make_store
from repro.ps.worker import GradientComputation, Worker
from repro.utils.logging import get_logger

__all__ = [
    "TrainingResult",
    "Resume",
    "Link",
    "WorkerLoop",
    "Step",
    "replica_step",
    "Tally",
    "ServerSession",
    "Hub",
    "ServerLoop",
    "Ok",
    "LogEntry",
    "UpdateLog",
    "Mirror",
]

_LOGGER = get_logger("ps.session")


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
    """The worker side of the step protocol: a step machine, driven over a
    :class:`Link` by :meth:`run` or at virtual instants by the simulator."""

    def __init__(
        self,
        worker_id: str,
        link: Link | None,
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
        clock: Callable[[], float] = time.monotonic,
        steps: Callable[[], Step] | None = None,
    ) -> None:
        """Create the loop around a ready ``worker`` or a ``build`` recipe.

        ``build`` is called after ``link.open()`` — and again whenever the
        server resumes this worker at a clock its data stream is not at.
        ``fault_plan`` contributes this worker's injected crash (with its
        optional rejoin delay) and flaky slow phases; ``exit_at`` /
        ``exit_after_push`` are the hard ``os._exit`` test hooks.
        ``clock`` times waits and stamps pushes; ``steps`` replaces
        ``replica_step(worker)`` as the source of each iteration.
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
        self._clock = clock
        self._steps = steps or (lambda: replica_step(self.worker))
        self._start = clock()
        self._sent_at: float | None = None  # when the push awaiting its OK went out
        self._wait = self._compute = 0.0
        self._drawn = 0
        self._tally = Tally()  # of the current replica: a rebuild starts afresh
        self._profile = profile
        self._profiler = None
        self._exit_at = exit_at
        self._exit_after_push = exit_after_push
        self._fault = fault_plan.for_worker(worker_id) if fault_plan is not None else None
        self._crash_clock = None
        if self._fault is not None and self._fault.kind == "crash":
            self._crash_clock = self._fault.after_clock

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
            fault_plan=plan.fault_plan,
            profile=plan.profile and index == 0,
            exit_at=plan.crash_at.get(worker_id),
            exit_after_push=plan.crash_after_push.get(worker_id),
        )

    # -- the step machine ------------------------------------------------
    def crash_due(self) -> bool:
        """Whether this worker's injected crash is due now; fires once."""
        if self._crash_clock is None or self.completed < self._crash_clock:
            return False
        self._crash_clock = None
        return True

    def step(self) -> Step:
        """Run the next iteration and count it: its push is about to be sent."""
        step = self._steps()
        self._tally.add(step)
        self._drawn += 1
        return step

    def header(self, step: Step) -> dict:
        """The push header of ``step``, stamped by the loop's clock."""
        computation = step.computation
        return {
            # Sequence number = iteration index: a server that keeps
            # per-worker watermarks applies a retransmission once.
            "seq": self.completed,
            "base_version": computation.base_version,
            "timestamp": self._clock() - self._start,
            "loss": computation.loss,
            "samples": computation.samples,
            "codec": step.codec,
        }

    def sent(self) -> None:
        """The push is out: waiting for its OK starts now."""
        self._sent_at = self._clock()

    def deliver(self, reply: PullReply) -> float:
        """Load the OK's ``reply`` and complete the iteration; the wait it ended."""
        waited = self._clock() - self._sent_at
        self._wait += waited
        self._sent_at = None
        self.worker.load_reply(reply)
        self.completed += 1
        return waited

    def report(self) -> dict:
        """The final report; a push still unanswered counts as waiting until now."""
        wait = self._wait
        if self._sent_at is not None:
            wait += self._clock() - self._sent_at
        return self._tally.report(
            self.worker_id, wait=wait, compute=self._compute, pulled=self.worker.pulled_bytes
        )

    # -- the blocking driver ---------------------------------------------
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
        self._sent_at = None  # a resumed push's OK never comes
        return self.link.ready(self.worker)

    def _run(self) -> dict | None:
        link = self.link
        if not self._enter(link.open()):
            return None
        self._start = self._clock()
        while self.completed < self.iterations:
            clock = self.completed
            if self._exit_at is not None and clock >= self._exit_at:
                os._exit(1)  # test hook: die like a real crash, no cleanup
            if self.crash_due():
                # Injected crash: the link announces or enacts the death; an
                # elastic one says where to rejoin.
                if not self._enter(link.leave(clock, self._fault.rejoin_after)):
                    return None
                continue
            compute_start = self._clock()
            step = self.step()
            if self.slowdown > 0:
                time.sleep(self.slowdown)
            if self._fault is not None and self._fault.slow(clock):
                time.sleep(self._fault.delay)
            compute_elapsed = self._clock() - compute_start
            self._compute += compute_elapsed

            if not link.push(self.header(step), step.computation, step.flat, step.encoded):
                return None
            if self._exit_after_push is not None and clock >= self._exit_after_push:
                os._exit(1)  # test hook: die mid-protocol, push sent but no OK taken

            self.sent()
            # Peers run the same per-iteration workload, so this worker's
            # own compute time (slowdown included) bounds how long a healthy
            # OK can take: stretch the guard rather than mistake a heavy
            # iteration for a hang.
            outcome = link.await_ok(self.wait_timeout + 4.0 * compute_elapsed)
            if isinstance(outcome, Resume):
                if not self._enter(outcome):
                    return None
                continue
            if outcome is None:
                return None
            self.deliver(outcome)

        profile = None
        if self._profiler is not None:
            self._profiler.detach()
            profile = {"worker_id": self.worker_id, **self._profiler.as_dict()}
        report = self.report()
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
    their :class:`ServerLoop`, the threaded runtime under its server lock
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

    @property
    def started(self) -> bool:
        """Whether the start line (:meth:`start`) has passed."""
        return self._start is not None

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
        to the tip (``log``); else the store sends the shards that moved
        since that base (``delta``); else the weights go densely
        (``dense``), and ``reason`` says why nothing smaller: ``welcome``,
        ``no base`` (no push yet), or the log's own ``gap``/``bytes``/
        ``opaque``.  A log that cannot bridge the span also becomes a
        ``dense_pull`` event — once, because the dense OK leaves the worker
        without a mirror until its next welcome.  Under an update log a
        welcome (re)builds the worker's mirror: ``mirrored`` is set and the
        packed optimizer state rides along as ``velocity`` (``None`` while
        empty).  Every kind is counted, with its payload bytes, in
        :attr:`pull_replies`.
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

    def crash_planned(self, worker_id: str) -> bool:
        """Whether ``worker_id`` leaving now is its injected crash: the fault
        plan crashes it, and its clock has reached the crash's."""
        injector = self.server.fault_injector
        fault = injector.plan.for_worker(worker_id) if injector is not None else None
        if fault is None or fault.kind != "crash":
            return False
        try:
            return self.server.policy.clock_table.clock(worker_id) >= fault.after_clock
        except KeyError:  # no longer a member: not this crash
            return False

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
        """Close the run: tail window, final evaluation, the result."""
        # Apply the tail window of a buffered robust aggregator before the
        # final evaluation sees the weights.
        self.server.flush_staged()
        wall_time = self.elapsed()
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


class Hub(Protocol):
    """The server end of a runtime's links — all a server runtime implements.

    A hub turns its transport's traffic into events for :class:`ServerLoop`,
    each a ``(worker_id, kind, message, payload)`` tuple whose ``worker_id``
    is the *owner of the connection* it came from, never a field of the
    message.  ``kind`` is one of:

    * ``"push"`` — ``message`` is the push header, ``payload`` whatever
      :meth:`gradients` needs;
    * ``"done"`` — ``message["report"]`` and ``message.get("events")``, and
      the worker's profile (or ``None``) as ``payload``;
    * ``"join"`` — the hub registered (and welcomed) the worker itself;
    * ``"departure"`` — the worker left the run: ``message.get("reason")``
      (``None`` for an announced leave), ``message.get("events")``, and
      ``message.get("chaos")`` when the net-fault plan may tear its link;
    * ``"failure"`` — the run cannot go on: ``message["reason"]``.

    Everything else on the wire (accepts, heartbeats, watchers) stays
    inside the hub.
    """

    def attach(self, loop: "ServerLoop") -> None:
        """Watch the hub's connections through ``loop.watch``."""

    def receive(self, ready: Iterable[tuple]) -> Iterator[tuple]:
        """The events of the ``(conn, data)`` pairs ``loop.watch`` registered
        that are ready to read — a generator: the loop handles each event
        before the hub reads on, so code after a ``yield`` sees its effect."""

    def gradients(self, worker_id: str, message: dict, payload) -> dict:
        """The gradient keywords of :meth:`ServerSession.push` for one push."""

    def ok(self, worker_id: str) -> None:
        """Deliver ``worker_id``'s OK."""

    def abort(self, reason: str) -> None:
        """Tell every connected worker the run is over."""

    def waiting(self) -> bool:
        """Whether the run must go on although no worker is registered."""

    def statistics(self) -> dict:
        """The transport's entries for the result's server statistics."""


class ServerLoop:
    """The server side of the step protocol over a :class:`Hub`.

    The process and tcp runtimes' one dispatch loop: a push goes through
    :meth:`ServerSession.push` and the workers it releases get their OKs; a
    ``done`` records the report and deregisters the worker, so a finished
    worker stops counting in the policy's membership; a departure leaves
    the membership elastically, recorded as an error unless it is the
    worker's injected crash, due at its clock (:meth:`ServerSession.crash_planned`),
    or the fault plan may tear its link; a failure records its reason and
    aborts.  No push, join, done or departure for the session's
    ``idle_timeout`` aborts a hung run.  The run is over once it started and
    no worker is registered (or it aborted), unless the hub still waits.
    """

    def __init__(self, session: ServerSession, hub: Hub, *, poll: float | None = None) -> None:
        """``poll`` bounds one wait for traffic (default: the idle timeout)."""
        self.session = session
        self.hub = hub
        self.poll = poll
        self.aborted = False
        # One persistent selector: registering each connection once is
        # measurably cheaper than building a selector per wait on the
        # per-push hot path (as ``multiprocessing.connection.wait`` does).
        self._selector = selectors.DefaultSelector()
        self._progress = time.monotonic()

    def watch(self, conn, data=None) -> None:
        """Read ``conn`` from the next wait on; ``data`` rides along with it."""
        self._selector.register(conn, selectors.EVENT_READ, data)

    def forget(self, conn) -> None:
        """Stop reading ``conn`` (already forgotten: a no-op)."""
        try:
            self._selector.unregister(conn)
        except (KeyError, ValueError):
            pass

    def run(self) -> TrainingResult:
        """Dispatch until the run is over; the session's result."""
        session, hub = self.session, self.hub
        try:
            hub.attach(self)
            self._progress = time.monotonic()
            while not self._over():
                ready = self._selector.select(self.poll or session.idle_timeout)
                for event in hub.receive(self._live(ready)):
                    self._progress = time.monotonic()
                    self._dispatch(*event)
                    if self.aborted:
                        break
                if not self.aborted and time.monotonic() - self._progress > session.idle_timeout:
                    session.errors.append(
                        f"server: no worker progress for {session.idle_timeout:.0f}s, aborting"
                    )
                    self.abort("no worker progress")
        finally:
            self._selector.close()
        return session.finish(**hub.statistics())

    def abort(self, reason: str) -> None:
        """Stop the run: every connected worker hears ``reason``."""
        self.aborted = True
        self.hub.abort(reason)

    def _over(self) -> bool:
        session = self.session
        ended = self.aborted or (session.started and not session.server.num_workers)
        return ended and not self.hub.waiting()

    def _live(self, ready):
        """The ready ``(conn, data)`` pairs, skipping any forgotten meanwhile."""
        registered = self._selector.get_map()
        for key, _ in ready:
            if registered.get(key.fd) is key:
                yield key.fileobj, key.data

    def _dispatch(self, worker_id: str, kind: str, message: dict, payload) -> None:
        session, hub = self.session, self.hub
        if kind == "push":
            gradients = hub.gradients(worker_id, message, payload)
            released = session.push(worker_id, message, **gradients).to_release
        elif kind == "done":
            session.done(worker_id, message["report"], message.get("events"), payload)
            released = session.release(worker_id)
        elif kind == "departure":
            reason = message.get("reason")
            planned = message.get("chaos") or session.crash_planned(worker_id)
            if reason is not None and not planned:
                session.errors.append(f"{worker_id}: {reason}")
            details = {} if reason is None else {"reason": reason}
            released = session.leave(worker_id, message.get("events"), **details)
        elif kind == "failure":
            session.errors.append(f"{worker_id}: {message['reason']}")
            self.abort(message["reason"])
            return
        else:  # "join": the hub registered the worker; it counts as progress
            return
        for released_id in released:
            hub.ok(released_id)
