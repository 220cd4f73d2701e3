"""Deterministic network-fault injection for the socket runtimes.

:mod:`repro.ps.faults` corrupts *payloads* at the server boundary; this
module attacks the *network itself*, worker-side, between a healthy
replica and a healthy server.  Four fault kinds cover the failure modes a
parameter server meets on a messy cluster, each written codec-style as
``kind[:params]`` and looked up in :data:`NET_FAULT_EXAMPLES` so a typo
fails loudly with the accepted list:

* ``delay:ms`` — jittered latency before every data-plane push (uniform in
  ``[0.5, 1.5] x ms``, drawn from a name-addressed RNG stream);
* ``drop[:probability[,times]]`` — tear the connection on a push: with the
  given probability (default 1.0) the push is either cut mid-frame or
  delivered in full *before* the socket dies, 50/50, so retries exercise
  both the lost-push and the lost-OK half of exactly-once delivery.
  ``times`` bounds how often the fault fires (default 1; 0 = unlimited);
* ``partition:start,duration`` — a wall-clock window (seconds from worker
  start) during which every push tears the connection and reconnect
  attempts are held at the chaos layer until the window closes;
* ``throttle:bytes_per_s`` — pace pushes to a byte budget, sleeping
  ``message_bytes / rate`` before each send.

Determinism: every probabilistic decision is drawn from
``RngStream(seed).get(f"netfault-{worker_id}")`` and consumed in a fixed
per-push order, so two runs of one chaos spec produce identical decision
sequences and identical event logs (partitions are wall-clock windows;
their logged event carries the spec'd window, not a timing-dependent push
index).

The chaos layer plugs into the transport stack at two grains:

* :class:`ChaosConnection` wraps a :class:`~repro.ps.transport.TcpConnection`
  and perturbs only data-plane ``push`` messages (control traffic —
  joins, heartbeats, done reports — passes through untouched);
* :class:`NetFaultSchedule` exposes the raw per-push decisions for
  transports that cannot tear a socket mid-frame (the process backend's
  pipe transport applies ``delay``/``drop`` directly; ``drop`` on a pipe
  is a permanent worker death because pipes have no reconnect path).

:class:`RetryBudget` is the other half of surviving the chaos: bounded
exponential backoff with jittered sleeps and an overall deadline, used by
the TCP worker around its reconnect/retry path so a herd of workers
orphaned by the same fault does not redial in lockstep and a dead server
fails the worker loudly instead of wedging it forever.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.ps.faults import resolve_worker
from repro.ps.transport import ConnectionClosed
from repro.utils.registry import Registry
from repro.utils.rng import RngStream

__all__ = [
    "NET_FAULT_KINDS",
    "NET_FAULT_EXAMPLES",
    "NetFaultSpec",
    "NetFaultPlan",
    "parse_net_fault_specs",
    "validate_net_fault_specs",
    "ChaosDecision",
    "NetFaultSchedule",
    "ChaosConnection",
    "RetryBudget",
]

#: Network-fault kind → a well-formed example of its spec (what a malformed
#: one's error shows).
NET_FAULT_EXAMPLES = Registry("net fault kind", {
    "delay": "delay:5",
    "drop": "drop, drop:0.25 or drop:1.0,2",
    "partition": "partition:2,1",
    "throttle": "throttle:1000000",
})
NET_FAULT_KINDS: tuple[str, ...] = tuple(NET_FAULT_EXAMPLES)


@dataclass(frozen=True)
class NetFaultSpec:
    """One parsed network fault: a kind, its parameters, and a target.

    ``worker`` is a resolved worker id (``"worker-1"``) or ``None`` for
    every worker; ``spec`` keeps the original ``kind:params`` text for
    event logs and error messages.
    """

    kind: str
    spec: str
    worker: str | None = None
    delay_ms: float = 0.0
    probability: float = 0.0
    times: int = 0
    start: float = 0.0
    duration: float = 0.0
    bytes_per_second: float = 0.0


def _parse_spec_text(text: str) -> dict:
    """Parse one ``kind[:params]`` chaos spec into constructor fields."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"net fault spec must be a non-empty string, got {text!r}")
    kind, _, params = text.strip().partition(":")
    kind = NET_FAULT_EXAMPLES.key(kind)
    fields: dict = {"kind": kind, "spec": text.strip()}
    try:
        if kind == "delay":
            fields["delay_ms"] = float(params)
            if not fields["delay_ms"] > 0:
                raise ValueError
        elif kind == "drop":
            probability, times = 1.0, 1
            if params:
                parts = params.split(",")
                if len(parts) > 2:
                    raise ValueError
                probability = float(parts[0])
                if len(parts) == 2:
                    times = int(parts[1])
            if not 0.0 < probability <= 1.0 or times < 0:
                raise ValueError
            fields["probability"], fields["times"] = probability, times
        elif kind == "partition":
            start_text, _, duration_text = params.partition(",")
            fields["start"] = float(start_text)
            fields["duration"] = float(duration_text)
            if fields["start"] < 0 or not fields["duration"] > 0:
                raise ValueError
        elif kind == "throttle":
            fields["bytes_per_second"] = float(params)
            if not fields["bytes_per_second"] > 0:
                raise ValueError
    except (TypeError, ValueError):
        raise ValueError(
            f"malformed net fault spec {text!r}; expected {NET_FAULT_EXAMPLES[kind]}"
        ) from None
    return fields


@dataclass(frozen=True)
class NetFaultPlan:
    """Every parsed network fault of a run, queryable per worker."""

    specs: tuple[NetFaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def for_worker(self, worker_id: str) -> tuple[NetFaultSpec, ...]:
        """Faults targeting ``worker_id`` (including untargeted globals)."""
        return tuple(
            spec
            for spec in self.specs
            if spec.worker is None or spec.worker == worker_id
        )

    def kinds(self) -> tuple[str, ...]:
        """Distinct fault kinds in the plan, in registry order."""
        present = {spec.kind for spec in self.specs}
        return tuple(kind for kind in NET_FAULT_KINDS if kind in present)

    def tears_connections(self, worker_id: str) -> bool:
        """Whether this plan may legitimately tear ``worker_id``'s socket."""
        return any(
            spec.kind in ("drop", "partition") for spec in self.for_worker(worker_id)
        )

    def to_dicts(self) -> list[dict]:
        """JSON-safe round-trippable form (inverse of parsing entries)."""
        entries = []
        for spec in self.specs:
            entry = {"spec": spec.spec}
            if spec.worker is not None:
                entry["worker"] = spec.worker
            entries.append(entry)
        return entries


def parse_net_fault_specs(
    net_faults,
    worker_ids: Sequence[str],
    allowed_kinds: tuple[str, ...] | None = None,
    context: str = "this backend",
) -> NetFaultPlan:
    """Parse spec entries into a :class:`NetFaultPlan`, failing loudly.

    Each entry is a mapping with a required ``spec`` (``kind[:params]``)
    and an optional ``worker`` (index or id; omitted targets every
    worker).  ``allowed_kinds`` restricts the registry for transports
    that cannot express every fault (the pipe transport supports only
    ``delay``/``drop``); the error names both the offender and what
    ``context`` accepts.
    """
    if isinstance(net_faults, (str, Mapping)):
        raise ValueError(
            "net_faults must be a sequence of entries like "
            "[{'spec': 'delay:5', 'worker': 0}], got a single "
            f"{type(net_faults).__name__}"
        )
    specs = []
    for entry in net_faults:
        if not isinstance(entry, Mapping):
            raise ValueError(
                f"each net fault entry must be a mapping, got {entry!r}"
            )
        unknown = set(entry) - {"spec", "worker"}
        if unknown:
            raise ValueError(
                f"unknown net fault keys {sorted(unknown)}; "
                "accepted keys: ['spec', 'worker']"
            )
        if "spec" not in entry:
            raise ValueError(f"net fault entry {dict(entry)!r} is missing 'spec'")
        fields = _parse_spec_text(entry["spec"])
        if allowed_kinds is not None and fields["kind"] not in allowed_kinds:
            raise ValueError(
                f"net fault kind {fields['kind']!r} is not supported by "
                f"{context}; supported kinds: {', '.join(allowed_kinds)}"
            )
        worker = None
        if "worker" in entry and entry["worker"] is not None:
            worker = resolve_worker(entry["worker"], worker_ids, "net fault")
        specs.append(NetFaultSpec(worker=worker, **fields))
    seen: set[tuple[str, str | None]] = set()
    for spec in specs:
        key = (spec.kind, spec.worker)
        if key in seen:
            target = spec.worker or "every worker"
            raise ValueError(
                f"duplicate net fault kind {spec.kind!r} for {target}; "
                "give each worker at most one spec per kind"
            )
        seen.add(key)
    return NetFaultPlan(tuple(specs))


#: Validation-only name for :func:`parse_net_fault_specs`.
validate_net_fault_specs = parse_net_fault_specs


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

    def __init__(
        self,
        plan: NetFaultPlan,
        worker_id: str,
        seed: int,
        clock=time.monotonic,
    ) -> None:
        self.worker_id = worker_id
        self._clock = clock
        self._origin = clock()
        self._rng = RngStream(seed).get(f"netfault-{worker_id}")
        self.events: list[dict] = []
        self._pushes = 0
        self._drops_fired = 0
        self._partition_logged = False
        self._started = False
        by_kind = {}
        for spec in plan.for_worker(worker_id):
            by_kind[spec.kind] = spec
        self._delay = by_kind.get("delay")
        self._drop = by_kind.get("drop")
        self._partition = by_kind.get("partition")
        self._throttle = by_kind.get("throttle")
        self._active = bool(by_kind)

    @property
    def active(self) -> bool:
        """Whether any fault targets this worker at all."""
        return self._active

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
