"""The step protocol, once: push → OK → pull under a pluggable clock policy.

A worker computes a gradient, pushes it, waits for the server's OK — the
synchronization policy (BSP, ASP, SSP, DSSP; :mod:`repro.core`) decides when
that goes out — and pulls the fresh weights.  This module holds that
protocol exactly once; the wall-clock runtimes
(:mod:`repro.ps.process_runtime`, :mod:`repro.ps.tcp_runtime`) only move
bytes and wake peers, and the simulator (:mod:`repro.simulation.trainer`)
drives the same :class:`ServerSession` under a virtual clock
(``docs/architecture.md`` has the walk-through).

* :class:`WorkerLoop` is the worker side, talking to the server through a
  :class:`Link` — the only thing a runtime implements for its workers.
* :class:`ServerSession` is the parameter server: one handler,
  :meth:`ServerSession.dispatch`, for every :class:`ServerEvent` (join,
  push, done, departure, failure) on every backend, the OK builder
  (:meth:`ServerSession.reply`) and the end-of-run record
  (:meth:`ServerSession.finish`).
* :class:`ServerLoop` feeds a session the events of a :class:`Hub` — the
  server end of the process and tcp runtimes' links, and the only thing
  such a runtime implements for its server.  The simulator dispatches its
  events directly.

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
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Protocol

import numpy as np

from repro.core.policy import SynchronizationPolicy
from repro.core.staleness import StalenessTracker
from repro.metrics.throughput import iteration_throughput
from repro.optim.sgd import SGD
from repro.ps.aggregation import Aggregator
from repro.ps.checkpoint import restore_into, save_checkpoint
from repro.ps.compression import decode_shard
from repro.ps.faults import FaultInjector, FaultPlan
from repro.ps.messages import PullReply, PushRequest, WorkerReport
from repro.ps.result import RunResult, json_safe
from repro.ps.sharding import ShardedKeyValueStore, make_store
from repro.ps.worker import GradientComputation, Worker
from repro.utils.logging import get_logger

if TYPE_CHECKING:
    from repro.ps.plan import WorkloadPlan

__all__ = [
    "decode_push",
    "Resume",
    "Link",
    "WorkerLoop",
    "Step",
    "replica_step",
    "Tally",
    "ServerSession",
    "ServerEvent",
    "Outcome",
    "Hub",
    "ServerLoop",
    "Ok",
    "LogEntry",
    "UpdateLog",
    "Mirror",
]

_LOGGER = get_logger("ps.session")


def decode_push(encoded, pool: dict, sparse: bool) -> dict:
    """Decode codec-compressed shard payloads into flat gradients.

    Dense payloads decode zero-copy (the ``none`` codec hands the server
    the very array the worker packed, keeping that path bit-for-bit
    identical to an uncompressed push); sparse/quantized payloads decode
    into ``pool`` (shard → float64 scratch), so steady-state pushes stay
    allocation-free.  With ``sparse`` (the applying optimizer's
    ``sparse_runs``) a sparse payload stays as it is: the store turns it
    into a sparse run and no scratch is ever allocated.  A worker's mirror
    replays logged pushes through this too, with its own optimizer's answer
    — the same one, so both sides run the same kernel on the same entry.
    """
    flat_gradients: dict = {}
    for payload in encoded:
        if sparse and payload.scheme == "sparse":
            flat_gradients[payload.shard] = payload
        elif payload.scheme == "dense":
            flat_gradients[payload.shard] = decode_shard(payload)
        else:
            scratch = pool.get(payload.shard)
            if scratch is None or scratch.size != payload.size:
                scratch = pool[payload.shard] = np.empty(payload.size, dtype=np.float64)
            flat_gradients[payload.shard] = decode_shard(payload, out=scratch)
    return flat_gradients


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
    """A worker's report from the steps whose pushes it sent: each iteration
    once, by its clock (a replay replaces it), the bytes of every send."""

    def __init__(self) -> None:
        self.steps: dict[int, tuple[int, float]] = {}  # clock → (samples, loss)
        self.wire_bytes = self.raw_bytes = 0

    def add(self, step: Step, clock: int) -> None:
        computation = step.computation
        dense = computation.flat_gradients or computation.gradients
        raw = sum(np.asarray(gradient).nbytes for gradient in dense.values())
        self.steps[clock] = (computation.samples, computation.loss)
        self.raw_bytes += raw
        self.wire_bytes += raw if step.encoded is None else sum(p.nbytes for p in step.encoded)

    def report(self, worker_id: str, *, wait: float, compute: float, pulled: int) -> dict:
        """The :class:`~repro.ps.messages.WorkerReport` fields, as a dict."""
        iterations = len(self.steps)
        loss = sum(loss for _, loss in self.steps.values())
        return {
            "worker_id": worker_id,
            "iterations": iterations,
            "samples_processed": sum(samples for samples, _ in self.steps.values()),
            "total_wait_time": wait,
            "total_compute_time": compute,
            "mean_loss": loss / iterations if iterations else float("nan"),
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
        self._tally = Tally()  # a rebuild keeps counting, and so do pulled bytes
        self._retired_pulled = 0  # pulled bytes of replicas a rebuild retired
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
        from repro.ps.plan import replica_builder  # the plan module builds sessions

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
        self._tally.add(step, self._drawn)
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
        pulled = self._retired_pulled + self.worker.pulled_bytes
        return self._tally.report(self.worker_id, wait=wait, compute=self._compute, pulled=pulled)

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
            self._retired_pulled += self.worker.pulled_bytes if self.worker is not None else 0
            self.worker = self._build()
            self.worker.loader.skip(resume.clock)
            self._drawn = resume.clock
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
class ServerEvent(NamedTuple):
    """One thing that happened to the server, as :meth:`ServerSession.dispatch` takes it.

    ``worker_id`` is the worker it concerns — for a message off a link, the
    *owner of the connection* it came from, never a field of the message.
    By ``kind``:

    * ``"join"`` — ``message.get("chaos")``: the net-fault plan may tear its link;
    * ``"push"`` — ``message`` is the push header (``base_version``,
      ``timestamp``, optionally ``loss``, ``samples``, ``codec``, ``seq``),
      ``payload`` the keywords ``buffers`` and exactly one of ``named``
      (per-name arrays), ``flat`` (per-shard packed buffers), ``encoded``;
    * ``"done"`` — ``message["report"]``, ``message.get("events")``, the
      profile (or ``None``) as ``payload``;
    * ``"departure"`` — ``message.get("reason")`` (``None``: an announced
      leave), ``.get("events")``, ``.get("chaos")`` and ``.get("time")``;
    * ``"failure"`` — the run cannot go on: ``message["reason"]``.
    """

    worker_id: str
    kind: str
    message: Mapping = MappingProxyType({})
    payload: object = None


@dataclass(frozen=True)
class Outcome:
    """What one event did (:meth:`ServerSession.dispatch`).

    ``to_release``: the workers owed an OK now, in sending order — a pusher
    the policy lets go on at once, then the blocked workers the event freed.
    A push's store version after it and its staleness; ``duplicate``: a
    retransmission, applied before; ``verbatim``: applied exactly as its
    frames decode (no injected corruption, no aggregation window, no buffers).
    """

    worker_id: str
    to_release: tuple[str, ...] = ()
    new_version: int = 0
    staleness: int = 0
    duplicate: bool = False
    verbatim: bool = False


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
    """The parameter server: the server side of the step protocol.

    One message handler, as the paper's Algorithm 1 and Li OSDI14 describe
    the server: :meth:`dispatch` takes an event, applies it and asks the
    clock policy who may go on; :meth:`reply` builds each OK; :meth:`finish`
    closes the run.  Those three are all a backend calls during a run.

    Single-threaded: every backend calls it from one thread (the process
    and tcp servers' :class:`ServerLoop`, the simulator's event loop), so it
    takes no lock.  Only the shared-memory store locks, against workers in
    other processes pulling while the server writes.
    """

    def __init__(
        self,
        store: ShardedKeyValueStore,
        optimizer: SGD,
        policy: SynchronizationPolicy,
        worker_ids=(),
        *,
        gradient_scale: float | None = None,
        learning_rate_schedule=None,
        epoch_samples: int = 0,
        aggregator: Aggregator | None = None,
        fault_injector: FaultInjector | None = None,
        evaluate_fn=None,
        evaluate_every_pushes: int = 0,
        wait_timeout: float = 120.0,
        clock: Callable[[], float] = time.monotonic,
        batch_size: int = 0,
    ) -> None:
        """Create a server over ``store``; ``worker_ids`` is the expected membership.

        ``gradient_scale`` multiplies every pushed gradient (default
        ``1 / registered workers``: a round of pushes is one large-batch
        update, the paper's MXNet convention).  ``learning_rate_schedule``
        sets the rate after the epochs of ``epoch_samples`` the pushes'
        ``samples`` add up to.  A buffered ``aggregator`` applies each clock
        window's robust combination as one update.  ``fault_injector``
        corrupts byzantine pushes and keeps the fault event log.
        ``evaluate_fn`` maps a full state to ``(accuracy, loss)``; ``clock``
        is the run's time source; ``batch_size`` turns updates/s into samples/s.
        """
        self.store = store
        self.optimizer = optimizer
        self.policy = policy
        self.staleness_tracker = StalenessTracker()
        self.aggregator = aggregator
        self.fault_injector = fault_injector
        self.batch_size = int(batch_size)
        self.evaluate_fn = evaluate_fn
        self.evaluate_every_pushes = int(evaluate_every_pushes)
        self.wait_timeout = float(wait_timeout)
        #: "No push for this long" means the run hung.  Adapts to the
        #: workload: a heavy model legitimately goes quiet for a whole
        #: iteration, so observed push intervals stretch it.
        self.idle_timeout = self.wait_timeout
        #: The one membership record: every expected or joined worker, the
        #: expected ones first → ``True`` while registered, ``False`` once it
        #: left, ``None`` before its first join.
        self.members: dict[str, bool | None] = dict.fromkeys(worker_ids)
        self._expected = len(self.members)
        #: One chronological event log: the fault injector's records and
        #: everything the runtime or the workers report land in this list.
        self.events: list[dict] = fault_injector.events if fault_injector is not None else []
        #: Highest sequence number applied per worker (exactly-once pushes).
        self.watermarks: dict[str, int] = {}
        self.reports: dict[str, WorkerReport] = {}
        self.errors: list[str] = []
        #: The reason of the first ``failure``: the run is over.
        self.failure: str | None = None
        self.profile: dict | None = None
        self.pushes_handled = 0
        self.restarts = 0
        self.evaluation_times: list[float] = []
        self.evaluation_accuracies: list[float] = []
        self.evaluation_losses: list[float] = []
        #: Set by a runtime whose links hold a :class:`Mirror` (one-shard
        #: store); ``None``: no OK is a log reply.
        self.update_log: UpdateLog | None = None
        #: How OKs were answered (:meth:`reply`), and the payload bytes of
        #: each kind.
        self.pull_replies = Counter(
            log=0, delta=0, dense=0, log_bytes=0, delta_bytes=0, dense_bytes=0
        )
        self._gradient_scale = gradient_scale
        self._schedule = learning_rate_schedule
        self._epoch_samples = max(int(epoch_samples), 1)
        self._samples = 0
        self._clock = clock
        self._start: float | None = None
        #: ``(at, store version)`` of the last recorded evaluation.
        self._evaluated: tuple[float | None, int] = (None, store.version)
        self._last_push_time: dict[str, float] = {}
        self._restored: dict[str, int] = {}  # checkpointed clocks, before their rejoin
        self._mirrored: set[str] = set()
        self._bases: dict[str, int] = {}
        # Pooled decode scratch for codec-compressed pushes (shard → array).
        self._decode_scratch: dict[int, np.ndarray] = {}
        # Buffered aggregation: staged per-worker copies of the window's
        # pushes (pooled, reused across windows) and the per-shard combine
        # scratch.
        self._buffered = aggregator is not None and aggregator.buffered
        self._staged: dict[str, dict[int, np.ndarray]] = {}
        self._stage_pool: dict[str, dict[int, np.ndarray]] = {}
        self._combine_scratch: dict[int, np.ndarray] = {}
        self._windows_applied = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def registered(self) -> list[str]:
        """The workers registered now."""
        return [worker_id for worker_id, on in self.members.items() if on]

    @property
    def num_workers(self) -> int:
        """Number of registered workers."""
        return sum(1 for on in self.members.values() if on)

    def clock(self, worker_id: str) -> int | None:
        """``worker_id``'s policy clock; ``None`` when it is not registered."""
        return self.policy.clock_table.clock(worker_id) if self.members.get(worker_id) else None

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
        point = (at, self.store.version)
        if self.evaluate_fn is None or point == self._evaluated:
            return
        self._evaluated = point
        # State views: the evaluation model copies them into its own arrays,
        # and copy-on-write keeps them stable meanwhile.
        accuracy, loss = self.evaluate_fn(self.store.state_views())
        self.evaluation_times.append(at)
        self.evaluation_accuracies.append(accuracy)
        self.evaluation_losses.append(loss)

    def gradient_scale(self) -> float:
        """Scale applied to pushed gradients (default ``1 / num_workers``)."""
        if self._gradient_scale is not None:
            return self._gradient_scale
        return 1.0 / max(self.num_workers, 1)

    def set_progress(self, epochs: float) -> None:
        """Set the learning rate the schedule gives after ``epochs`` of training."""
        if self._schedule is not None:
            self.optimizer.learning_rate = self._schedule.learning_rate(epochs)

    # -- the one entry point -------------------------------------------
    def dispatch(self, event: ServerEvent | tuple) -> Outcome:
        """Handle one :class:`ServerEvent`; who it releases, and what a push did.

        A ``join`` registers the worker at the clock it (re)starts at
        (:meth:`clock` reads it back): 0 before the start line, its
        checkpointed clock after a server restart, later just after its last
        push the server owns (its watermark), 0 for a chaos-torn worker whose
        first push was lost, the slowest clock for a new elastic joiner.  A
        ``push`` is applied once — a retransmitted ``seq`` is only a
        ``duplicate_push`` event — and the policy decides who goes on.  A
        ``done`` deregisters the worker, so it stops counting in the policy's
        membership and the buffered window target; a ``departure`` also
        drops its staged push and is an error unless announced, its injected
        crash due at its clock, or the net-fault plan may tear its link.  A
        ``failure`` is an error and sets :attr:`failure`.
        """
        worker_id, kind, message, payload = event
        if kind == "push":
            if self._schedule is not None:  # the rate this push is applied at
                self._samples += int(message.get("samples", 0))
                self.set_progress(self._samples / self._epoch_samples)
            request = _request(worker_id, message, **(payload or {}))
            return self._push(request, self._apply(request))
        # A worker's own events (chaos, retries) ride with its last word.
        self.events.extend(dict(entry) for entry in message.get("events") or ())
        if kind == "join":
            return self._join(worker_id, bool(message.get("chaos")))
        if kind == "done":
            self.reports[worker_id] = WorkerReport(**message["report"])
            if payload is not None:
                self.profile = payload
            return Outcome(worker_id, self._release(worker_id))
        if kind == "departure":
            return Outcome(worker_id, self._depart(worker_id, message))
        if kind == "failure":
            self.errors.append(f"{worker_id}: {message['reason']}")
            if self.failure is None:
                self.failure = str(message["reason"])
            return Outcome(worker_id)
        raise ValueError(f"unknown server event kind {kind!r}")

    def _join(self, worker_id: str, chaos: bool) -> Outcome:
        status = self.members.get(worker_id)
        if status:
            raise ValueError(f"worker {worker_id!r} already registered")
        rejoining = status is not None
        restored = self._restored.get(worker_id)
        if restored is not None and not rejoining:
            clock = restored
        elif not self.started:
            clock = 0
        elif worker_id in self.watermarks:
            clock = self.watermarks[worker_id] + 1
        else:
            clock = 0 if chaos else self.policy.clock_table.slowest_clock()
        if self.fault_injector is not None and self.started and rejoining:
            self.fault_injector.record("rejoin", worker_id, clock=clock)
        elif rejoining or restored is not None:
            self.events.append({"kind": "reconnect", "worker": worker_id, "clock": int(clock)})
        self.members[worker_id] = True
        self.policy.register_worker(worker_id, clock)
        return Outcome(worker_id)

    def _release(self, worker_id: str) -> tuple[str, ...]:
        """Deregister ``worker_id`` (if registered); whom that unblocks."""
        if not self.members.get(worker_id):
            return ()
        self.members[worker_id] = False
        self.policy.deregister_worker(worker_id)
        released = tuple(self.policy.pop_releasable())
        if self._buffered:
            # The departed worker's staged push (if any) still counts; what
            # shrank is the window target.  Flush when the staged set now
            # covers every remaining worker — including the case where the
            # last worker left and the tail window must be applied.
            self._stage_pool.pop(worker_id, None)
            if self._staged and len(self._staged) >= max(self.num_workers, 1):
                self._flush_window()
        return released

    def _depart(self, worker_id: str, message: Mapping) -> tuple[str, ...]:
        injector, clock, reason = self.fault_injector, self.clock(worker_id), message.get("reason")
        # The planned crash is due at its clock: an earlier death is a failure.
        fault = injector.plan.for_worker(worker_id) if injector is not None else None
        planned = fault is not None and fault.kind == "crash" and (
            clock is not None and clock >= fault.after_clock
        )
        if reason is not None and not (message.get("chaos") or planned):
            self.errors.append(f"{worker_id}: {reason}")
        if injector is not None:
            details = {k: message[k] for k in ("reason", "time") if message.get(k) is not None}
            injector.record("crash", worker_id, clock=clock or 0, **details)
        # Its staged, not-yet-applied push may be the very corruption a
        # robust aggregator exists to reject.
        if self._buffered:
            dropped = self._staged.pop(worker_id, None) is not None
            if dropped and injector is not None:
                reason = "worker died with a staged push"
                injector.record("aggregator_rejection", worker_id, reason=reason)
        return self._release(worker_id)

    # -- the push, in two halves -----------------------------------------
    def _apply(self, request: PushRequest) -> Outcome:
        """The storage half of a push: dedupe, apply, log."""
        worker_id = request.worker_id
        if not self.members.get(worker_id):
            raise KeyError(f"push from unregistered worker {worker_id!r}")
        self._bases[worker_id] = request.base_version
        watermark = self.watermarks.get(worker_id)
        if request.seq is not None and watermark is not None and request.seq <= watermark:
            # Exactly-once: a retransmission of a push this server already
            # owns (the worker never saw its OK, or replayed after a
            # reconnect).  Its progress is real, its gradient applied.
            return Outcome(worker_id, new_version=self.store.version, duplicate=True)
        log = self.update_log
        if log is None:
            return self.apply_push(request)
        learning_rate, scale = self.optimizer.learning_rate, self.gradient_scale()
        applied = self.apply_push(request)
        frames = request.encoded_gradients if applied.verbatim else None
        log.record(self.store.version, learning_rate, scale, frames, worker_id, request.seq)
        return applied

    def _push(self, request: PushRequest, applied: Outcome) -> Outcome:
        """The synchronization half of a push, and its bookkeeping."""
        outcome = self.finish_push(request, applied)
        worker_id = request.worker_id
        if applied.duplicate:
            self.events.append(
                {
                    "kind": "duplicate_push",
                    "worker": worker_id,
                    "seq": request.seq,
                    "watermark": self.watermarks[worker_id],
                }
            )
        elif request.seq is not None:
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
            and self.store.version - self._evaluated[1] >= self.evaluate_every_pushes
        ):
            self.evaluate(self.elapsed())
        return outcome

    def apply_push(self, request: PushRequest) -> Outcome:
        """Apply one push's gradient and measure its staleness;
        :meth:`finish_push` consults the policy on it."""
        if request.base_version > self.store.version:
            raise ValueError(
                "push base_version is newer than the store version "
                f"({request.base_version} > {self.store.version})"
            )
        flat_gradients, encoded = request.flat_gradients, request.encoded_gradients
        # Sparse frames stay sparse wherever the update is the frames' own:
        # a pure function of (frames, optimizer), so a mirror replaying the
        # logged push takes the same kernel.  A buffered window is dense,
        # and so is what a fault injector looks at to decide.
        sparse = self.optimizer.sparse_runs and not self._buffered
        if encoded is not None:
            flat_gradients = self._decode(encoded, sparse and self.fault_injector is None)
        verbatim = encoded is not None and not request.buffers
        if self.fault_injector is not None:
            corrupted = self.fault_injector.corrupt_push(request.worker_id, flat_gradients)
            if corrupted is not None:
                flat_gradients, verbatim = corrupted, False
            elif encoded is not None and sparse:
                flat_gradients = self._decode(encoded, True)
        if self._buffered:
            applied = self._stage(request, flat_gradients)
        else:
            version = self.store.apply_gradients(
                request.gradients,
                self.optimizer,
                scale=self.gradient_scale(),
                flat_gradients=flat_gradients,
            )
            # Staleness is measured against the *global* version regardless
            # of sharding: how many updates landed between the worker's pull
            # and the version its own update produced.
            applied = Outcome(
                request.worker_id,
                new_version=version,
                staleness=version - 1 - request.base_version,
                verbatim=verbatim,
            )
        if request.buffers:
            self.store.update_buffers(request.buffers)
        return applied

    def finish_push(self, request: PushRequest, applied: Outcome) -> Outcome:
        """Consult the policy on an applied (or duplicate) push; whom it releases.

        A first delivery's staleness is recorded; a duplicate's is not, but
        the policy clock advances all the same, so every wait resolves as it
        did for the original delivery.
        """
        if not applied.duplicate:
            self.staleness_tracker.record(applied.staleness)
            self.pushes_handled += 1
        decision = self.policy.on_push(request.worker_id, request.timestamp)
        pusher = (request.worker_id,) if decision.release else ()
        return replace(applied, to_release=(*pusher, *self.policy.pop_releasable()))

    # Only perfbench/layers.py still calls this; ROADMAP item 6(b) removes it.
    def handle_pull(self) -> PullReply:
        """A dense, zero-copy snapshot of the global weights."""
        return self.store.pull()

    def _decode(self, encoded, sparse: bool) -> dict:
        """Decode a push into the pooled scratch (:func:`decode_push`)."""
        return decode_push(encoded, self._decode_scratch, sparse)

    # -- buffered aggregation ------------------------------------------
    def _shard_sizes(self) -> dict[int, int]:
        """Weight-block element count per shard (what a full push carries)."""
        return {
            shard: (segments[-1].hi if segments else 0)
            for shard, segments in self.store.flat_layouts
        }

    def _stage(self, request: PushRequest, flat_gradients) -> Outcome:
        """Stage one push into the current clock window.

        The pushed buffers are copied into pooled per-worker scratch — the
        dense push path aliases live worker memory — and the window is
        applied once every registered worker has contributed.  A worker
        lapping the window (ASP/SSP fast nodes) flushes the partial window
        first, so no contribution is ever overwritten.
        """
        sizes = self._shard_sizes()
        covered = flat_gradients is not None and all(
            size == 0
            or (
                flat_gradients.get(shard) is not None
                and flat_gradients[shard].size == size
            )
            for shard, size in sizes.items()
        )
        if not covered:
            raise ValueError(
                "buffered aggregation requires pushes carrying the full "
                "packed flat gradient of every shard"
            )
        worker_id = request.worker_id
        if worker_id in self._staged:
            self._flush_window()
        pool = self._stage_pool.setdefault(worker_id, {})
        staged: dict[int, np.ndarray] = {}
        for shard, size in sizes.items():
            if size == 0:
                continue
            scratch = pool.get(shard)
            if scratch is None or scratch.size != size:
                scratch = pool[shard] = np.empty(size, dtype=np.float64)
            np.copyto(scratch, flat_gradients[shard], casting="unsafe")
            staged[shard] = scratch
        self._staged[worker_id] = staged
        staleness = self.store.version - request.base_version
        if len(self._staged) >= max(self.num_workers, 1):
            self._flush_window()
        return Outcome(worker_id, new_version=self.store.version, staleness=staleness)

    def _flush_window(self) -> None:
        """Aggregate and apply the staged window.

        Rows stack in sorted worker-id order so floating-point reduction
        order — and therefore the stored weights — is independent of
        runtime scheduling.  The combined gradient is applied with scale
        ``gradient_scale() * window_size``, which reduces to exactly one
        round's worth of mean updates under the default ``1/num_workers``
        scale.
        """
        if not self._staged:
            return
        order = sorted(self._staged)
        combined: dict[int, np.ndarray] = {}
        for shard, size in self._shard_sizes().items():
            if size == 0:
                continue
            stacked = np.stack([self._staged[worker][shard] for worker in order])
            out = self._combine_scratch.get(shard)
            if out is None or out.size != size:
                out = self._combine_scratch[shard] = np.empty(size, dtype=np.float64)
            combined[shard] = self.aggregator.combine(stacked, out)
        count = len(order)
        self._staged.clear()
        self.store.apply_gradients(
            {},
            self.optimizer,
            scale=self.gradient_scale() * count,
            flat_gradients=combined,
        )
        self._windows_applied += 1

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
        store = self.store
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
            state = self.optimizer.state_dict().get("velocity")
            if state:  # step_flat keeps a velocity for every packed segment
                segments = (s for _, layout in store.flat_layouts for s in layout)
                velocity = np.concatenate([state[s.name].ravel() for s in segments])
                nbytes += velocity.nbytes
        self.pull_replies.update(dense=1, dense_bytes=nbytes)
        return Ok(
            "dense", pull.version, pull, mirrored=mirrored, velocity=velocity, reason=reason
        )

    # -- persistence -----------------------------------------------------
    def checkpoint(self, path, *, counters: Mapping = (), codec_states=None) -> None:
        """Save the run atomically to ``path``.

        Weights and optimizer state, plus what a restarted session resumes
        from: every worker's clock, the push watermarks (so it dedups
        retransmissions consistently with the state it restores), and the
        event history and counters, so the result spans every incarnation.
        ``counters`` adds the runtime's own (e.g. its wire byte totals).
        """
        save_checkpoint(
            path,
            self.store,
            self.optimizer,
            paradigm=self.policy.name,
            extra={
                "worker_clocks": self.policy.clock_table.clocks(),
                "push_watermarks": dict(self.watermarks),
                "events": json_safe(list(self.events)),
                "restarts": self.restarts,
                "counters": {
                    "policy": vars(self.policy.counters),
                    "staleness": self.staleness_tracker.counts,
                    "pull_replies": dict(self.pull_replies),
                    **dict(counters),
                },
            },
            codec_states=codec_states,
        )

    def restore(self, path) -> dict:
        """Resume from the checkpoint at ``path``; its counters, for the runtime's own.

        Each checkpointed worker rejoins at its clock, and the restart is a
        ``server_restart`` event.
        """
        extra = restore_into(path, self.store, self.optimizer).extra
        self._restored = {
            str(worker): int(clock) for worker, clock in extra.get("worker_clocks", {}).items()
        }
        self.watermarks.update(
            (str(worker), int(seq)) for worker, seq in extra.get("push_watermarks", {}).items()
        )
        self.events.extend(dict(event) for event in extra.get("events", []))
        counters = extra.get("counters", {})
        vars(self.policy.counters).update(counters.get("policy", {}))
        self.staleness_tracker.counts[:] = counters.get("staleness", [])
        self.pull_replies.update(counters.get("pull_replies", {}))
        self.restarts = int(extra.get("restarts", 0)) + 1
        self.events.append(
            {
                "kind": "server_restart",
                "worker": "server",
                "restart": self.restarts,
                "version": int(self.store.version),
                "clocks": dict(self._restored),
            }
        )
        _LOGGER.info(
            "restored checkpoint %s at version %d (clocks=%s, watermarks=%s)",
            path, self.store.version, self._restored, self.watermarks,
        )
        return counters

    # -- the end of the run ----------------------------------------------
    def statistics(self) -> dict:
        """Policy, store and aggregation counters for the run record."""
        stats = self.policy.statistics()
        stats["store_version"] = self.store.version
        stats["store_nbytes"] = int(self.store.nbytes)
        stats["learning_rate"] = self.optimizer.learning_rate
        if self.aggregator is not None:
            stats["aggregation"] = {
                "name": self.aggregator.name,
                "buffered": bool(self._buffered),
                "windows_applied": self._windows_applied,
            }
        return stats

    def finish(self, *, reports=(), profile: dict | None = None, **extra_statistics) -> RunResult:
        """Close the run: tail window, final evaluation, the run record.

        ``reports`` are final worker reports handed over at the end (the
        simulator's: it deregisters nobody), ``profile`` the first worker's
        layer profile; ``extra_statistics`` are the runtime's own counters.
        Every backend's record carries the same keys, a counter its runtime
        lacks at 0.
        """
        for report in reports:
            self.reports[report["worker_id"]] = WorkerReport(**report)
        if profile is not None:
            self.profile = profile
        # Apply the tail window of a buffered robust aggregator before the
        # final evaluation sees the weights.
        if self._buffered:
            self._flush_window()
        wall_time = self.elapsed()
        self.evaluate(wall_time)
        joined = list(self.members)
        ordered = joined[: self._expected] + sorted(joined[self._expected :])
        reports = [self.reports.get(worker_id) or WorkerReport(worker_id) for worker_id in ordered]
        statistics = {
            **self.statistics(),
            "pull_replies": dict(self.pull_replies),
            "cow_fallbacks": 0,
            "tcp_bytes_sent": 0,
            "tcp_bytes_received": 0,
            **extra_statistics,
        }
        updates = self.store.version
        return RunResult(
            paradigm=self.policy.name,
            paradigm_label=self.policy.label,
            times=self.evaluation_times,
            accuracies=self.evaluation_accuracies,
            losses=self.evaluation_losses,
            total_time=wall_time,
            total_updates=updates,
            throughput=iteration_throughput(
                updates, max(wall_time, 1e-12), samples_per_update=self.batch_size
            ),
            staleness=self.staleness_tracker.summary(),
            worker_reports=reports,
            server_statistics=statistics,
            errors=self.errors,
            events=[dict(event) for event in self.events],
            profile=self.profile,
        )


def _request(
    worker_id: str, header: Mapping, *, named=None, flat=None, encoded=None, buffers=None
) -> PushRequest:
    """The :class:`PushRequest` of a push event's header and gradient keywords."""
    seq = header.get("seq")
    return PushRequest(
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


class Hub(Protocol):
    """The server end of a runtime's links — all a server runtime implements.

    It turns its transport's traffic into :class:`ServerEvent` tuples, a
    push's gradient unpacked into keywords; everything else on the wire
    (accepts, heartbeats, watchers, welcomes) stays inside the hub.
    """

    def attach(self, loop: "ServerLoop") -> None:
        """Watch the hub's connections through ``loop.watch``."""

    def receive(self, ready: Iterable[tuple]) -> Iterator[tuple]:
        """The events of the ``(conn, data)`` pairs ``loop.watch`` registered
        that are ready to read — a generator: the loop dispatches each event
        before the hub reads on, so code after a ``yield`` sees its effect."""

    def ok(self, worker_id: str) -> None:
        """Deliver ``worker_id``'s OK."""

    def abort(self, reason: str) -> None:
        """Tell every connected worker the run is over."""

    def waiting(self) -> bool:
        """Whether the run must go on although no worker is registered."""

    def statistics(self) -> dict:
        """The transport's entries for the result's server statistics."""


class ServerLoop:
    """The process and tcp servers' loop: a :class:`Hub`'s events through
    :meth:`ServerSession.dispatch`, and an OK to every worker it releases.

    A ``failure`` aborts the run, and so does no push, join, done or
    departure for the session's ``idle_timeout``.  The run is over once it
    started and no worker is registered (or it aborted), unless the hub
    still waits.
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

    def watch(self, conn, data=None) -> None:
        """Read ``conn`` from the next wait on; ``data`` rides along with it."""
        self._selector.register(conn, selectors.EVENT_READ, data)

    def forget(self, conn) -> None:
        """Stop reading ``conn`` (already forgotten: a no-op)."""
        try:
            self._selector.unregister(conn)
        except (KeyError, ValueError):
            pass

    def run(self) -> RunResult:
        """Dispatch until the run is over; the session's result."""
        session, hub = self.session, self.hub
        try:
            hub.attach(self)
            progress = time.monotonic()
            while not self._over():
                ready = self._selector.select(self.poll or session.idle_timeout)
                for event in hub.receive(self._live(ready)):
                    progress = time.monotonic()
                    for worker_id in session.dispatch(event).to_release:
                        hub.ok(worker_id)
                    if session.failure is not None:
                        break
                if session.failure is None and time.monotonic() - progress > session.idle_timeout:
                    reason = f"no worker progress for {session.idle_timeout:.0f}s, aborting"
                    session.dispatch(ServerEvent("server", "failure", {"reason": reason}))
                if session.failure is not None and not self.aborted:
                    self.aborted = True
                    hub.abort(session.failure)
        finally:
            self._selector.close()
        return session.finish(**hub.statistics())

    def _over(self) -> bool:
        ended = self.aborted or (self.session.started and not self.session.num_workers)
        return ended and not self.hub.waiting()

    def _live(self, ready):
        """The ready ``(conn, data)`` pairs, skipping any forgotten meanwhile."""
        registered = self._selector.get_map()
        for key, _ in ready:
            if registered.get(key.fd) is key:
                yield key.fileobj, key.data
