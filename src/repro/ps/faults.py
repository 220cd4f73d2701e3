"""Fault injection: crashes, corrupted gradients, byzantine workers, flapping.

The paper evaluates DSSP on clean clusters; this module supplies the dirty
ones.  A *fault plan* is a list of per-worker fault specs declared in the
experiment spec::

    "faults": [
        {"worker": 2, "kind": "byzantine", "mode": "sign_flip", "after_clock": 10},
        {"worker": 1, "kind": "crash", "after_clock": 5},
        {"worker": 0, "kind": "flaky", "scale": 4.0, "period": 3},
    ]

Fault kinds:

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

Corruption is injected at the server boundary — after codec decode, before
the store applies the gradient — which is behaviorally identical to a lying
worker and gives every backend the same single wiring point
(:meth:`repro.ps.server.ParameterServer.apply_push`) plus a centralized
event log.  Crashes and flapping are injected where the behavior lives:
the runtimes' worker loops and the simulator's cluster model.

Randomness is drawn from the experiment's name-addressed
:class:`~repro.utils.rng.RngStream` (stream ``fault-<worker>``), so the
same spec seed replays the exact same corruption — two runs of one chaos
plan produce identical fault event logs.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.utils.registry import Registry
from repro.utils.rng import RngStream

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "CORRUPTION_MODES",
    "FAULT_KINDS",
    "FAULT_KIND_KEYS",
    "resolve_worker",
    "parse_fault_specs",
    "validate_fault_specs",
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


class FaultPlan:
    """The validated set of fault specs of one experiment (one per worker)."""

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs = tuple(specs)
        self._by_worker = {spec.worker: spec for spec in self.specs}

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def for_worker(self, worker_id: str) -> FaultSpec | None:
        """The fault assigned to ``worker_id``, if any."""
        return self._by_worker.get(worker_id)

    def crash_at(self) -> dict[str, int]:
        """Worker → iteration map of the plan's crashes (the runtimes' hook)."""
        return {
            spec.worker: spec.after_clock
            for spec in self.specs
            if spec.kind == "crash"
        }

    def rejoin_after(self) -> dict[str, int]:
        """Worker → delay map of crashes that rejoin (TCP backend only)."""
        return {
            spec.worker: spec.rejoin_after
            for spec in self.specs
            if spec.kind == "crash" and spec.rejoin_after is not None
        }

    def flaky_for(self, worker_id: str) -> FaultSpec | None:
        """The flaky spec of ``worker_id``, if any."""
        spec = self._by_worker.get(worker_id)
        return spec if spec is not None and spec.kind == "flaky" else None

    def corrupts_anyone(self) -> bool:
        """Whether any spec injects gradient corruption."""
        return any(spec.kind in ("byzantine", "corrupt") for spec in self.specs)

    def to_dicts(self) -> tuple[dict, ...]:
        """Spec-surface form (what ``ExperimentSpec.to_dict`` serializes)."""
        out = []
        for spec in self.specs:
            entry: dict = {"worker": spec.worker, "kind": spec.kind}
            if spec.after_clock:
                entry["after_clock"] = spec.after_clock
            if spec.mode is not None:
                entry["mode"] = spec.mode
            if spec.until_clock is not None:
                entry["until_clock"] = spec.until_clock
            if spec.kind in ("byzantine", "corrupt", "flaky") and spec.scale != 1.0:
                entry["scale"] = spec.scale
            if spec.kind == "flaky":
                entry["period"] = spec.period
                entry["delay"] = spec.delay
            if spec.rejoin_after is not None:
                entry["rejoin_after"] = spec.rejoin_after
            out.append(entry)
        return tuple(out)


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


def parse_fault_specs(faults, worker_ids: Sequence[str]) -> FaultPlan:
    """Validate the spec-surface fault list into a :class:`FaultPlan`.

    ``faults`` is a sequence of mappings (see the module docstring);
    ``worker`` entries may be integer indexes into ``worker_ids`` or the
    ids themselves.  At most one fault per worker.  Raises ``ValueError``
    on any malformed entry.
    """
    specs: list[FaultSpec] = []
    seen: set[str] = set()
    if isinstance(faults, Mapping) or isinstance(faults, str):
        raise ValueError("faults must be a list of fault entries")
    for entry in faults:
        if not isinstance(entry, Mapping):
            raise ValueError(f"each fault must be a mapping, got {entry!r}")
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
        if worker in seen:
            raise ValueError(f"worker {worker!r} appears in more than one fault")
        seen.add(worker)

        after_clock = _require_int(entry, "after_clock", 0) if "after_clock" in entry else 0
        mode = entry.get("mode")
        if kind in ("byzantine", "corrupt"):
            if mode not in CORRUPTION_MODES:
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
        period = _require_int(entry, "period", 1) if "period" in entry else 1
        delay = float(entry.get("delay", 0.005))
        if delay < 0:
            raise ValueError(f"fault delay must be >= 0, got {delay}")
        rejoin_after = (
            _require_int(entry, "rejoin_after", 1) if "rejoin_after" in entry else None
        )
        specs.append(
            FaultSpec(
                worker=worker,
                kind=kind,
                after_clock=after_clock,
                mode=mode,
                until_clock=until_clock,
                scale=scale,
                period=period,
                delay=delay,
                rejoin_after=rejoin_after,
            )
        )
    return FaultPlan(specs)


#: Raise ``ValueError`` unless every fault entry is well-formed.
validate_fault_specs = parse_fault_specs


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
            for spec in plan.specs
        }
        self._scratch: dict[str, dict[int, np.ndarray]] = {}

    def record(self, kind: str, worker: str, **fields) -> dict:
        """Append one structured event (crash, rejoin, rejection, ...)."""
        event = {"kind": kind, "worker": worker, **fields}
        self.events.append(event)
        return event

    def worker_clock(self, worker_id: str) -> int:
        """Pushes seen from ``worker_id`` so far (the injector's clock)."""
        return self._clocks.get(worker_id, 0)

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
    else:  # pragma: no cover - parse_fault_specs rejects unknown modes
        raise ValueError(f"unknown corruption mode {mode!r}")
