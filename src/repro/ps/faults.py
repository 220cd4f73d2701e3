"""The run's one fault plan, and the worker-fault mechanism.

The paper evaluates DSSP on clean clusters; this module describes the dirty
ones.  A spec declares two entry lists, which :func:`parse_fault_plan`
parses together — once per spec and once per
:class:`~repro.ps.plan.TrainingPlan` — into one frozen :class:`FaultPlan`
that every backend reads off the plan (``plan.fault_plan``)::

    "faults": [
        {"worker": 2, "kind": "byzantine", "mode": "sign_flip", "after_clock": 10},
        {"worker": 1, "kind": "crash", "after_clock": 5},
        {"worker": 0, "kind": "flaky", "scale": 4.0, "period": 3},
    ],
    "net_faults": [{"spec": "delay:5"}, {"spec": "drop:0.5,2", "worker": 1}]

A ``worker`` is an index into the roster or a worker id.

Worker faults (``faults``, at most one per worker):

* ``crash`` — the worker dies at clock ``after_clock`` (its
  ``after_clock``-th push never happens).  On the TCP backend an optional
  ``rejoin_after`` makes the worker drop its connection and rejoin
  ``rejoin_after`` heartbeat periods later, riding the elastic membership
  machinery; the other backends treat a crash as permanent.
* ``byzantine`` — every push from clock ``after_clock`` on is corrupted
  (``mode``: ``sign_flip``, ``noise`` or ``bit_flip``).
* ``corrupt`` — like ``byzantine`` but transient: corruption stops at
  clock ``until_clock`` (exclusive).
* ``flaky`` — slow-node flapping: the worker alternates ``period`` clocks
  slow, ``period`` clocks normal.  The simulator multiplies the worker's
  iteration time by ``scale``; the wall-clock runtimes sleep an extra
  ``delay`` seconds per slow-phase iteration.

Network faults (``net_faults``, codec-style ``kind[:params]`` text, at most
one per kind and target; an entry without ``worker`` hits every worker):

* ``delay:ms`` — jittered latency before every data-plane push (uniform in
  ``[0.5, 1.5] x ms``);
* ``drop[:probability[,times]]`` — tear the connection on a push: with the
  given probability (default 1.0) the push is either cut mid-frame or
  delivered in full *before* the socket dies, 50/50, so retries exercise
  both the lost-push and the lost-OK half of exactly-once delivery.
  ``times`` bounds how often the fault fires (default 1; 0 = unlimited);
* ``partition:start,duration`` — a wall-clock window (seconds from worker
  start) during which every push tears the connection and reconnect
  attempts are held until the window closes;
* ``throttle:bytes_per_s`` — pace pushes to a byte budget.

Which network-fault kinds a run can inject depends on its links, so each
plan class declares them (:meth:`~repro.ps.plan.TrainingPlan.net_fault_support`)
and the plan rejects the rest at construction; the mechanisms live in
:mod:`repro.ps.netfaults`.

Corruption is injected at the server boundary — after codec decode, before
the store applies the gradient — which is behaviorally identical to a lying
worker and gives every backend the same single wiring point
(:meth:`repro.ps.session.ServerSession.apply_push`) plus a centralized
event log (:class:`FaultInjector`).  Crashes and flapping are injected where
the behavior lives: the shared worker loop and the simulator's time model.

Randomness is drawn from the experiment's name-addressed
:class:`~repro.utils.rng.RngStream` (streams ``fault-<worker>`` and
``netfault-<worker>``), so the same spec seed replays the exact same
faults — two runs of one chaos plan produce identical fault event logs.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.utils.registry import Registry
from repro.utils.rng import RngStream

__all__ = [
    "FaultSpec",
    "NetFault",
    "FaultPlan",
    "FaultInjector",
    "CORRUPTION_MODES",
    "FAULT_KINDS",
    "FAULT_KIND_KEYS",
    "NET_FAULT_EXAMPLES",
    "NET_FAULT_KINDS",
    "resolve_worker",
    "fault_entries",
    "parse_fault_plan",
]

CORRUPTION_MODES = ("sign_flip", "noise", "bit_flip")

_COMMON_KEYS = frozenset({"worker", "kind", "after_clock"})
#: Fault kind → the entry keys it accepts.
FAULT_KIND_KEYS = Registry("fault kind", {
    "crash": _COMMON_KEYS | {"rejoin_after"},
    "byzantine": _COMMON_KEYS | {"mode", "scale"},
    "corrupt": _COMMON_KEYS | {"mode", "scale", "until_clock"},
    "flaky": _COMMON_KEYS | {"scale", "period", "delay"},
})
FAULT_KINDS = tuple(FAULT_KIND_KEYS)

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
class FaultSpec:
    """One validated per-worker fault (see the module docstring for kinds)."""

    worker: str
    kind: str
    after_clock: int = 0
    mode: str | None = None
    until_clock: int | None = None
    scale: float = 1.0
    period: int = 1
    delay: float = 0.005
    rejoin_after: int | None = None

    def corrupts(self, clock: int) -> bool:
        """Whether a push at ``clock`` from this spec's worker is corrupted."""
        if self.kind not in ("byzantine", "corrupt"):
            return False
        if clock < self.after_clock:
            return False
        return self.until_clock is None or clock < self.until_clock

    def slow(self, clock: int) -> bool:
        """Whether a flaky worker is in its slow phase at ``clock``."""
        if self.kind != "flaky" or clock < self.after_clock:
            return False
        return ((clock - self.after_clock) // self.period) % 2 == 0


@dataclass(frozen=True)
class NetFault:
    """One validated network fault: a kind, its parameters, and a target.

    ``worker`` is a worker id or ``None`` for every worker; ``spec`` keeps
    the original ``kind:params`` text for event logs.
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


@dataclass(frozen=True)
class FaultPlan:
    """Every fault of one run, parsed: worker faults and network faults."""

    faults: tuple[FaultSpec, ...] = ()
    net_faults: tuple[NetFault, ...] = ()

    def for_worker(self, worker_id: str) -> FaultSpec | None:
        """The worker fault assigned to ``worker_id``, if any."""
        return next((spec for spec in self.faults if spec.worker == worker_id), None)

    def net_for(self, worker_id: str) -> tuple[NetFault, ...]:
        """The network faults hitting ``worker_id`` (untargeted ones included)."""
        return tuple(fault for fault in self.net_faults if fault.worker in (None, worker_id))

    def net_kinds(self) -> tuple[str, ...]:
        """Distinct network-fault kinds in the plan, in registry order."""
        present = {fault.kind for fault in self.net_faults}
        return tuple(kind for kind in NET_FAULT_KINDS if kind in present)

    def tears_connections(self, worker_id: str) -> bool:
        """Whether the plan may legitimately tear ``worker_id``'s connection."""
        return any(fault.kind in ("drop", "partition") for fault in self.net_for(worker_id))


# ----------------------------------------------------------------------
# The one parser
# ----------------------------------------------------------------------
def parse_fault_plan(faults, net_faults, worker_ids: Sequence[str]) -> FaultPlan:
    """Validate the spec-surface ``faults`` and ``net_faults`` into one plan.

    Both are sequences of mappings (see the module docstring), resolved
    against the roster ``worker_ids``.  Raises ``ValueError`` on any
    malformed entry.
    """
    plan = FaultPlan(
        tuple(_worker_fault(entry, worker_ids) for entry in fault_entries(faults, "fault")),
        tuple(_net_fault(entry, worker_ids) for entry in fault_entries(net_faults, "net fault")),
    )
    seen: set = set()
    for spec in plan.faults:
        if spec.worker in seen:
            raise ValueError(f"worker {spec.worker!r} appears in more than one fault")
        seen.add(spec.worker)
    seen.clear()
    for fault in plan.net_faults:
        if (fault.kind, fault.worker) in seen:
            raise ValueError(
                f"duplicate net fault kind {fault.kind!r} for "
                f"{fault.worker or 'every worker'}; give each worker at most "
                "one spec per kind"
            )
        seen.add((fault.kind, fault.worker))
    return plan


def fault_entries(entries, what: str) -> tuple[Mapping, ...]:
    """``entries`` (``what``: "fault" or "net fault") as a tuple of mappings,
    or a ``ValueError`` that says what is wrong with them."""
    if isinstance(entries, (str, Mapping)):
        raise ValueError(f"{what} entries must be a list of mappings, not a {type(entries).__name__}")
    entries = tuple(entries)
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ValueError(f"each {what} entry must be a mapping, got {entry!r}")
    return entries


def resolve_worker(value, worker_ids: Sequence[str], what: str = "fault") -> str:
    """Resolve an index-or-id worker reference against the cluster roster."""
    if isinstance(value, int) and not isinstance(value, bool):
        if not 0 <= value < len(worker_ids):
            raise ValueError(
                f"{what} worker index {value} out of range [0, {len(worker_ids)})"
            )
        return worker_ids[value]
    if isinstance(value, str):
        if value not in worker_ids:
            raise ValueError(
                f"{what} worker {value!r} is not in the cluster "
                f"(not in the roster {list(worker_ids)})"
            )
        return value
    raise ValueError(f"{what} worker must be an index or id, got {value!r}")


def _require_int(entry: Mapping, key: str, minimum: int) -> int:
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"fault {key} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"fault {key} must be >= {minimum}, got {value}")
    return value


def _worker_fault(entry: Mapping, worker_ids: Sequence[str]) -> FaultSpec:
    """One ``faults`` entry, validated."""
    if "worker" not in entry or "kind" not in entry:
        raise ValueError(f"fault entries need 'worker' and 'kind': {dict(entry)!r}")
    kind = FAULT_KIND_KEYS.key(entry["kind"])
    unknown = set(entry) - FAULT_KIND_KEYS[kind]
    if unknown:
        raise ValueError(
            f"fault kind {kind!r} does not accept {sorted(unknown)} "
            f"(allowed: {sorted(FAULT_KIND_KEYS[kind])})"
        )
    worker = resolve_worker(entry["worker"], worker_ids)
    after_clock = _require_int(entry, "after_clock", 0) if "after_clock" in entry else 0
    mode = entry.get("mode")
    if kind in ("byzantine", "corrupt") and mode not in CORRUPTION_MODES:
        raise ValueError(
            f"fault kind {kind!r} needs a corruption mode; available "
            f"modes: {', '.join(CORRUPTION_MODES)} (got {mode!r})"
        )
    until_clock = None
    if kind == "corrupt" and "until_clock" in entry:
        until_clock = _require_int(entry, "until_clock", after_clock + 1)
    scale = float(entry.get("scale", 4.0 if kind == "flaky" else 1.0))
    if scale <= 0:
        raise ValueError(f"fault scale must be positive, got {scale}")
    delay = float(entry.get("delay", 0.005))
    if delay < 0:
        raise ValueError(f"fault delay must be >= 0, got {delay}")
    return FaultSpec(
        worker=worker,
        kind=kind,
        after_clock=after_clock,
        mode=mode,
        until_clock=until_clock,
        scale=scale,
        period=_require_int(entry, "period", 1) if "period" in entry else 1,
        delay=delay,
        rejoin_after=(
            _require_int(entry, "rejoin_after", 1) if "rejoin_after" in entry else None
        ),
    )


def _net_fault(entry: Mapping, worker_ids: Sequence[str]) -> NetFault:
    """One ``net_faults`` entry: a ``spec`` text and an optional ``worker``."""
    unknown = set(entry) - {"spec", "worker"}
    if unknown:
        raise ValueError(
            f"unknown net fault keys {sorted(unknown)}; accepted keys: ['spec', 'worker']"
        )
    if "spec" not in entry:
        raise ValueError(f"net fault entry {dict(entry)!r} is missing 'spec'")
    fields = _net_fault_fields(entry["spec"])
    if entry.get("worker") is not None:
        fields["worker"] = resolve_worker(entry["worker"], worker_ids, "net fault")
    return NetFault(**fields)


def _net_fault_fields(text) -> dict:
    """Parse one ``kind[:params]`` network-fault text into :class:`NetFault` fields."""
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


class FaultInjector:
    """Server-side gradient corruption plus the centralized fault event log.

    One injector serves one training run.  The server consults it on every
    push (:meth:`corrupt_push`); the runtimes report membership faults into
    the same log (:meth:`record`), so a run's chaos history comes out as
    one ordered, structured ``events`` list.

    Corruption never mutates the pushed buffers in place — the dense
    ``none``-codec path aliases the worker's live accumulation buffer, so
    corrupted values are written into pooled per-worker scratch.
    """

    def __init__(self, plan: FaultPlan, streams: RngStream) -> None:
        self.plan = plan
        self.events: list[dict] = []
        self._clocks: dict[str, int] = {}
        self._rngs = {
            spec.worker: streams.get(f"fault-{spec.worker}")
            for spec in plan.faults
        }
        self._scratch: dict[str, dict[int, np.ndarray]] = {}

    def record(self, kind: str, worker: str, **fields) -> dict:
        """Append one structured event (crash, rejoin, rejection, ...)."""
        event = {"kind": kind, "worker": worker, **fields}
        self.events.append(event)
        return event

    def corrupt_push(
        self, worker_id: str, flat_gradients: Mapping[int, np.ndarray] | None
    ) -> Mapping[int, np.ndarray] | None:
        """Advance the worker's clock; corrupt the push if its fault says so.

        Returns a replacement flat-gradient mapping (pooled scratch holding
        the corrupted values) when corruption applies, else ``None``.
        Pushes that carry no packed buffers (per-name gradient dicts) are
        counted but never corrupted — every runtime in this codebase pushes
        packed.
        """
        clock = self._clocks.get(worker_id, 0)
        self._clocks[worker_id] = clock + 1
        spec = self.plan.for_worker(worker_id)
        if spec is None or not spec.corrupts(clock) or not flat_gradients:
            return None
        rng = self._rngs[worker_id]
        pool = self._scratch.setdefault(worker_id, {})
        corrupted: dict[int, np.ndarray] = {}
        for shard, buffer in flat_gradients.items():
            scratch = pool.get(shard)
            if scratch is None or scratch.size != buffer.size:
                scratch = pool[shard] = np.empty(buffer.size, dtype=np.float64)
            _corrupt_into(scratch, buffer, spec.mode, spec.scale, rng)
            corrupted[shard] = scratch
        self.record(
            "corrupted_push",
            worker_id,
            clock=clock,
            mode=spec.mode,
            fault=spec.kind,
        )
        return corrupted


def _corrupt_into(
    out: np.ndarray,
    grad: np.ndarray,
    mode: str,
    scale: float,
    rng: np.random.Generator,
) -> None:
    """Write the corrupted form of ``grad`` into ``out`` (same size)."""
    if mode == "sign_flip":
        np.multiply(grad, -scale, out=out)
    elif mode == "noise":
        np.copyto(out, grad)
        rms = float(np.sqrt(np.mean(np.square(grad)))) or 1.0
        out += rng.normal(scale=scale * rms, size=out.size)
    elif mode == "bit_flip":
        np.copyto(out, grad)
        # Flip one random low-exponent/mantissa bit in ~1% of the elements
        # (at least one): localized silent data corruption, not a blowup.
        count = max(1, out.size // 100)
        indices = rng.choice(out.size, size=count, replace=False)
        bits = rng.integers(0, 52, size=count, dtype=np.uint64)
        raw = out.view(np.uint64)
        raw[indices] ^= np.uint64(1) << bits
    else:  # pragma: no cover - parse_fault_plan rejects unknown modes
        raise ValueError(f"unknown corruption mode {mode!r}")
