"""The network-fault mechanisms of the socket links.

:mod:`repro.ps.faults` describes a run's network faults (``delay``,
``drop``, ``partition``, ``throttle``) as part of its one
:class:`~repro.ps.faults.FaultPlan`; this module enacts them worker-side,
between a healthy replica and a healthy server:

* :class:`NetFaultSchedule` — the raw per-push decisions of one worker,
  drawn from ``RngStream(seed).get(f"netfault-{worker_id}")`` in a fixed
  per-push order, so two runs of one chaos spec produce identical decision
  sequences and identical event logs (partitions are wall-clock windows;
  their logged event carries the spec'd window, not a timing-dependent
  push index).
* :class:`ChaosConnection` — wraps a :class:`~repro.ps.transport.TcpConnection`
  and perturbs only data-plane ``push`` messages (control traffic — joins,
  heartbeats, done reports — passes through untouched).
* :class:`RetryBudget` — the other half of surviving the chaos: bounded
  exponential backoff with jittered sleeps and an overall deadline, used by
  the TCP worker around its reconnect/retry path so a herd of workers
  orphaned by the same fault does not redial in lockstep and a dead server
  fails the worker loudly instead of wedging it forever.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.ps.faults import FaultPlan
from repro.ps.transport import ConnectionClosed
from repro.utils.rng import RngStream

__all__ = ["ChaosDecision", "NetFaultSchedule", "ChaosConnection", "RetryBudget"]


# ----------------------------------------------------------------------
# Per-push decisions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosDecision:
    """What the chaos layer does to one push, fully resolved.

    ``drop`` is ``None`` (deliver normally), ``"torn"`` (cut the message
    mid-frame, then kill the socket) or ``"sent"`` (deliver the full
    message, *then* kill the socket — the push lands but its OK is lost,
    the half of exactly-once delivery a plain torn frame never tests).
    """

    push: int
    delay: float = 0.0
    throttle: float = 0.0
    drop: str | None = None


class NetFaultSchedule:
    """Deterministic chaos decisions for one worker's push stream.

    One instance per worker process; every probabilistic choice comes from
    the worker's name-addressed RNG stream in a fixed per-push order, so
    the decision sequence (and hence the event log) is a pure function of
    ``(seed, worker_id, chaos specs)``.  ``clock`` is injectable for
    tests; partitions are measured from :meth:`mark_start` (training
    start), falling back to schedule creation if it is never called.
    """

    def __init__(self, plan: FaultPlan, worker_id: str, seed: int, clock=time.monotonic) -> None:
        self.worker_id = worker_id
        self._clock = clock
        self._origin = clock()
        self._rng = RngStream(seed).get(f"netfault-{worker_id}")
        self.events: list[dict] = []
        self._pushes = 0
        self._drops_fired = 0
        self._partition_logged = False
        self._started = False
        by_kind = {fault.kind: fault for fault in plan.net_for(worker_id)}
        self._delay = by_kind.get("delay")
        self._drop = by_kind.get("drop")
        self._partition = by_kind.get("partition")
        self._throttle = by_kind.get("throttle")

    def mark_start(self) -> None:
        """Re-anchor the partition window at training start.

        Model build and data loading happen between schedule creation and
        the first push; without re-anchoring, a short early window can
        close before the worker ever sends anything.  Idempotent: only the
        first call moves the origin, so a rejoin mid-run (which replays
        this code path) cannot reopen an already-served window.
        """
        if not self._started:
            self._started = True
            self._origin = self._clock()

    def _elapsed(self) -> float:
        return self._clock() - self._origin

    def _in_partition(self) -> bool:
        if self._partition is None:
            return False
        elapsed = self._elapsed()
        return self._partition.start <= elapsed < (
            self._partition.start + self._partition.duration
        )

    def partition_wait(self) -> float:
        """Seconds until the partition window closes (0 outside it)."""
        if not self._in_partition():
            return 0.0
        return (self._partition.start + self._partition.duration) - self._elapsed()

    def hold_reconnect(self, sleep=time.sleep) -> float:
        """Block a reconnect attempt until the partition window closes.

        Returns the seconds held, so callers can log it.  Reconnects
        outside a partition pass through immediately.
        """
        held = self.partition_wait()
        if held > 0:
            sleep(held)
        return held

    def next_push(self, nbytes: int) -> ChaosDecision:
        """Decide the fate of the next push of ``nbytes`` payload bytes.

        Advances the push counter and consumes RNG draws in a fixed order
        (delay first, then drop) so the stream stays aligned between runs.
        """
        push = self._pushes
        self._pushes += 1
        delay = throttle = 0.0
        drop = None
        if self._delay is not None:
            jitter = 0.5 + float(self._rng.random())  # uniform in [0.5, 1.5)
            delay = (self._delay.delay_ms / 1000.0) * jitter
        if self._drop is not None and (
            self._drop.times == 0 or self._drops_fired < self._drop.times
        ):
            fires = float(self._rng.random()) < self._drop.probability
            phase = "torn" if float(self._rng.random()) < 0.5 else "sent"
            if fires:
                self._drops_fired += 1
                drop = phase
                self.events.append(
                    {
                        "kind": "net_drop",
                        "worker": self.worker_id,
                        "push": push,
                        "phase": phase,
                        "spec": self._drop.spec,
                    }
                )
        if self._throttle is not None:
            throttle = float(nbytes) / self._throttle.bytes_per_second
        if drop is None and self._in_partition():
            drop = "torn"
            if not self._partition_logged:
                self._partition_logged = True
                self.events.append(
                    {
                        "kind": "net_partition",
                        "worker": self.worker_id,
                        "start": self._partition.start,
                        "duration": self._partition.duration,
                        "spec": self._partition.spec,
                    }
                )
        return ChaosDecision(push=push, delay=delay, throttle=throttle, drop=drop)


# ----------------------------------------------------------------------
# Chaos transport wrapper
# ----------------------------------------------------------------------
class ChaosConnection:
    """A :class:`~repro.ps.transport.TcpConnection` with scheduled faults.

    Only data-plane ``push`` messages are perturbed; control traffic
    (join, heartbeat, done, watch) passes straight through so the chaos
    hits gradient delivery, not cluster membership bookkeeping.  A
    ``drop``/``partition`` decision closes the underlying socket and
    raises :class:`~repro.ps.transport.ConnectionClosed`, which sends the
    worker down its normal reconnect/retry path — chaos runs exercise
    exactly the code real failures do.
    """

    def __init__(self, conn, schedule: NetFaultSchedule) -> None:
        self._conn = conn
        self._schedule = schedule

    @property
    def inner(self):
        """The wrapped connection (tests reach through for its socket)."""
        return self._conn

    def send(self, header: dict, shards=()) -> int:
        if not isinstance(header, Mapping) or header.get("type") != "push":
            return self._conn.send(header, shards)
        shards = tuple(shards)
        nbytes = sum(
            int(array.nbytes) for shard in shards for array in shard.arrays
        )
        decision = self._schedule.next_push(nbytes)
        if decision.delay > 0:
            time.sleep(decision.delay)
        if decision.throttle > 0:
            time.sleep(decision.throttle)
        if decision.drop == "sent":
            self._conn.send(header, shards)
            self._tear(decision)
        if decision.drop == "torn":
            raw = self._conn.encode(header, shards)
            self._conn.send_raw(bytes(raw[: max(1, len(raw) // 2)]))
            self._tear(decision)
        return self._conn.send(header, shards)

    def _tear(self, decision: ChaosDecision) -> None:
        self._conn.close()
        raise ConnectionClosed(
            f"chaos: connection torn at push {decision.push} "
            f"({decision.drop} delivery)"
        )

    # -- passthrough ---------------------------------------------------
    def recv(self, timeout: float | None = None):
        return self._conn.recv(timeout)

    def read_ready(self) -> list:
        return self._conn.read_ready()

    def settimeout(self, timeout: float | None) -> None:
        self._conn.settimeout(timeout)

    @property
    def bytes_sent(self) -> int:
        return self._conn.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._conn.bytes_received

    def fileno(self) -> int:
        return self._conn.fileno()

    def peername(self) -> str:
        return self._conn.peername()

    def close(self) -> None:
        self._conn.close()


# ----------------------------------------------------------------------
# Retry budgets
# ----------------------------------------------------------------------
@dataclass
class RetryBudget:
    """Bounded exponential backoff with jittered sleeps and a deadline.

    Iterate :meth:`attempts` with ``for``/``else``: each iteration is one
    try; between tries the budget sleeps ``min(base * 2^n, max_delay)``
    scaled by a uniform ``[0.5, 1.5)`` jitter (herd-busting — a fleet of
    workers orphaned by the same restart must not redial in lockstep).
    The generator ends — without raising — when either ``max_attempts``
    tries have been yielded or ``deadline`` seconds have passed, so the
    ``else`` clause is where callers fail loudly.

    ``rng`` accepts any object with ``.random()`` (a named
    :class:`~repro.utils.rng.RngStream` generator makes retry timing
    reproducible in tests); ``sleep``/``clock`` are injectable the same
    way.
    """

    max_attempts: int = 8
    base_delay: float = 0.1
    max_delay: float = 2.0
    deadline: float | None = None
    rng: object | None = None
    sleep: object = time.sleep
    clock: object = time.monotonic
    #: Backoff sleeps actually taken, for logs and tests.
    sleeps: list = field(default_factory=list)

    def _jitter(self) -> float:
        if self.rng is not None:
            return 0.5 + float(self.rng.random())
        import random

        return 0.5 + random.random()

    def attempts(self):
        """Yield attempt indices, sleeping jittered backoff in between."""
        if self.max_attempts < 1:
            return
        start = self.clock()
        attempt = 0
        while True:
            yield attempt
            attempt += 1
            if attempt >= self.max_attempts:
                return
            remaining = None
            if self.deadline is not None:
                remaining = self.deadline - (self.clock() - start)
                if remaining <= 0:
                    return
            pause = min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)
            pause *= self._jitter()
            if remaining is not None:
                pause = min(pause, remaining)
            self.sleeps.append(pause)
            self.sleep(pause)
