"""Topology-aware network cost model and the ring-allreduce pattern.

The flat :class:`repro.simulation.network.NetworkModel` treats every
worker↔server path as one private latency+bandwidth link, which cannot
produce the two effects real clusters hit DSSP with: *rack bottlenecks*
(many workers funneling through one shared uplink, so transfers queue
behind each other) and *heavy-tailed jitter* (the occasional transfer that
takes 10x the median, which is exactly the straggler regime the paper's
dynamic staleness bound targets).  This module generalizes the cost model
to a link graph:

* a :class:`Link` is one ``latency + bytes/bandwidth`` hop with a pluggable
  jitter distribution (``none``, the flat model's ``lognormal``, and the
  heavy-tailed ``exponential`` / ``pareto``);
* shared links (``shared=True``) serve transfers FIFO — a transfer arriving
  while the link is busy waits for the queue to drain, and every wait is
  recorded in the state's queue trace;
* a :class:`Topology` maps each worker to its uplink path (worker → server)
  and derives worker→worker routes by tree routing (drop the common spine,
  descend the destination's path);
* :class:`TopologyTimeModel` replaces
  :class:`repro.simulation.workload.IterationTimeModel`'s communication leg
  with path traversals, and can cost a synchronous ``ring_allreduce``
  collective (``2*(n-1)`` chunked steps) instead of the PS push/pull pair.

The flat model is a *degenerate case*: :func:`single_link_topology` (one
private lognormal-jittered link per worker) reproduces the flat model's
virtual times bit-for-bit — same arithmetic, same RNG draw order — which
is enforced by the parity suite in ``tests/simulation/test_topology_parity.py``
and the CI gate.  All times inside the topology are *unscaled* network
seconds; :class:`TopologyTimeModel` applies ``time_scale`` exactly where
the flat model does so the scaled sums stay bit-for-bit comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.utils.registry import Registry

__all__ = [
    "Link",
    "Topology",
    "TopologyState",
    "TopologyTimeModel",
    "JITTERS",
    "parse_jitter_spec",
    "make_jitter",
    "available_jitters",
    "single_link_topology",
    "rack_topology",
    "TOPOLOGY_PRESETS",
    "available_topology_presets",
    "canonical_topology_spec",
    "validate_topology_spec",
    "build_topology",
    "COMM_PATTERNS",
    "validate_comm_pattern",
    "ring_allreduce",
    "ring_allreduce_wire_bytes",
]


# ----------------------------------------------------------------------
# Jitter distributions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LogNormalJitter:
    """The flat model's multiplicative jitter: ``exp(N(0, sigma))``."""

    sigma: float

    def draw(self, rng: np.random.Generator) -> float:
        # Identical call signature to NetworkModel.transfer_time so the
        # degenerate single-link topology consumes the same draws.
        return float(np.exp(rng.normal(0.0, self.sigma)))


@dataclass(frozen=True)
class ExponentialTailJitter:
    """``1 + Exp(scale)``: occasional transfers several times the base."""

    scale: float

    def draw(self, rng: np.random.Generator) -> float:
        return 1.0 + float(rng.exponential(self.scale))


@dataclass(frozen=True)
class ParetoTailJitter:
    """``1 + Pareto(alpha)``: genuinely heavy tail (small alpha = heavier)."""

    alpha: float

    def draw(self, rng: np.random.Generator) -> float:
        return 1.0 + float(rng.pareto(self.alpha))


#: Jitter name → distribution class (its one field is the spec's value).
JITTERS = Registry("jitter", {
    "none": None,
    "lognormal": LogNormalJitter,
    "exponential": ExponentialTailJitter,
    "pareto": ParetoTailJitter,
})


def available_jitters() -> tuple[str, ...]:
    """Registered jitter distribution names, sorted."""
    return tuple(sorted(JITTERS))


def parse_jitter_spec(spec: str) -> tuple[str, float | None]:
    """Parse ``"none"``, ``"lognormal:0.2"``, ``"exponential:0.5"``, ...

    Unknown names and malformed parameters raise ``ValueError`` naming the
    accepted distributions (the same contract as the codec registry).
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(
            "jitter spec must be a non-empty string; available jitters: "
            f"{', '.join(JITTERS)}"
        )
    name, sep, rest = spec.partition(":")
    name = JITTERS.key(name)
    if not sep:
        if name == "none":
            return name, None
        raise ValueError(f"jitter {name!r} needs a parameter, e.g. {name!r}:0.2")
    if name == "none":
        raise ValueError("jitter 'none' takes no parameter")
    try:
        value = float(rest.strip())
    except ValueError:
        raise ValueError(
            f"jitter parameter {rest.strip()!r} in {spec!r} is not a number"
        ) from None
    if value < 0:
        raise ValueError(f"jitter parameter must be >= 0, got {value}")
    return name, value


def make_jitter(spec: str):
    """Build a jitter model from a spec string; ``None`` when jitter-free.

    A zero parameter collapses to ``None`` — the degenerate topology must
    skip the RNG draw entirely when the flat model would, or the two paths
    desynchronize their jitter streams.
    """
    name, value = parse_jitter_spec(spec)
    if name == "none" or value == 0.0:
        return None
    return JITTERS[name](value)


# ----------------------------------------------------------------------
# Links and the topology graph
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Link:
    """One hop of the network graph.

    ``shared=True`` marks a contended resource (a rack uplink, a WAN
    trunk): transfers serialize FIFO on it, and the queueing delay is what
    turns tail jitter into straggler cascades.  Private links (a worker's
    own NIC) never queue.
    """

    name: str
    latency: float
    bandwidth_bytes_per_second: float
    jitter: str = "none"
    shared: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("link name must be non-empty")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth_bytes_per_second <= 0:
            raise ValueError("bandwidth must be > 0")
        # Builds (and therefore validates) the jitter model once; the frozen
        # dataclass caches it for the hot traversal loop.
        object.__setattr__(self, "jitter_model", make_jitter(self.jitter))

    def base_time(self, nbytes: float) -> float:
        """Jitter-free seconds to move ``nbytes`` across this link."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.latency + nbytes / self.bandwidth_bytes_per_second


class Topology:
    """A rack/link graph mapping every worker to its path to the server."""

    def __init__(
        self,
        name: str,
        links: Iterable[Link],
        paths: dict[str, Sequence[str]],
    ) -> None:
        self.name = name
        self.links: dict[str, Link] = {}
        for link in links:
            if link.name in self.links:
                raise ValueError(f"duplicate link name {link.name!r}")
            self.links[link.name] = link
        if not paths:
            raise ValueError("a topology needs at least one worker path")
        self._paths: dict[str, tuple[Link, ...]] = {}
        for worker_id, link_names in paths.items():
            if not link_names:
                raise ValueError(f"worker {worker_id!r} has an empty path")
            unknown = [name for name in link_names if name not in self.links]
            if unknown:
                raise ValueError(
                    f"worker {worker_id!r} path references unknown link(s) {unknown}"
                )
            self._paths[worker_id] = tuple(self.links[name] for name in link_names)

    @property
    def worker_ids(self) -> list[str]:
        """Worker identifiers in declaration order."""
        return list(self._paths)

    @property
    def num_workers(self) -> int:
        return len(self._paths)

    def worker_path(self, worker_id: str) -> tuple[Link, ...]:
        """Links from ``worker_id`` up to the server, in traversal order."""
        try:
            return self._paths[worker_id]
        except KeyError:
            raise KeyError(
                f"topology {self.name!r} has no worker {worker_id!r}"
            ) from None

    def worker_to_worker_path(self, src: str, dst: str) -> tuple[Link, ...]:
        """Tree route between two workers.

        Both uplink paths end at the server (the tree root); the route
        climbs ``src``'s path, skips the spine the two paths share, and
        descends ``dst``'s path.  In a two-rack topology same-rack
        neighbours use ``(leaf_src, leaf_dst)``; cross-rack routes
        additionally traverse both rack uplinks.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        up = self.worker_path(src)
        down = self.worker_path(dst)
        common = 0
        while (
            common < len(up)
            and common < len(down)
            and up[len(up) - 1 - common] is down[len(down) - 1 - common]
        ):
            common += 1
        return up[: len(up) - common] + tuple(reversed(down[: len(down) - common]))

    def new_state(self) -> "TopologyState":
        """Fresh mutable queue state for one simulation run."""
        return TopologyState(self)

    def describe(self) -> dict:
        """Plain-data summary (provenance, debugging, sweeps)."""
        return {
            "name": self.name,
            "links": [
                {
                    "name": link.name,
                    "latency": link.latency,
                    "bandwidth": link.bandwidth_bytes_per_second,
                    "jitter": link.jitter,
                    "shared": link.shared,
                }
                for link in self.links.values()
            ],
            "paths": {
                worker_id: [link.name for link in path]
                for worker_id, path in self._paths.items()
            },
        }


class TopologyState:
    """Mutable per-run state: FIFO occupancy of the shared links.

    All times are unscaled network seconds.  ``queue_trace`` records one
    entry per shared-link traversal (arrival, start-of-service, wait,
    bytes, tag) — the determinism suite pins it, and sweeps read rack
    contention out of it.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._busy_until: dict[str, float] = {}
        self.queue_trace: list[dict] = []

    def transfer(
        self,
        path: Sequence[Link],
        nbytes: float,
        start: float = 0.0,
        rng: np.random.Generator | None = None,
        tag: str | None = None,
    ) -> float:
        """Duration of moving ``nbytes`` along ``path`` starting at ``start``.

        Store-and-forward: each link is traversed in order, shared links
        serve FIFO (a busy link delays the transfer until it drains).  The
        return value is the *duration* (not the completion time), computed
        by pure accumulation so a single private link is bit-for-bit
        ``(latency + nbytes/bandwidth) * jitter`` — the flat model's
        arithmetic.  A zero-byte transfer still pays every link's latency.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if not path:
            raise ValueError("path must contain at least one link")
        elapsed = 0.0
        for link in path:
            service = link.latency + nbytes / link.bandwidth_bytes_per_second
            if rng is not None and link.jitter_model is not None:
                service *= link.jitter_model.draw(rng)
            if link.shared:
                arrival = start + elapsed
                begin = self._busy_until.get(link.name, 0.0)
                if begin < arrival:
                    begin = arrival
                wait = begin - arrival
                self._busy_until[link.name] = begin + service
                self.queue_trace.append(
                    {
                        "link": link.name,
                        "arrival": arrival,
                        "start": begin,
                        "wait": wait,
                        "nbytes": float(nbytes),
                        "tag": tag,
                    }
                )
                elapsed += wait + service
            else:
                elapsed += service
        return elapsed

    def busy_until(self, link_name: str) -> float:
        """When a shared link's current queue drains (0.0 when idle)."""
        return self._busy_until.get(link_name, 0.0)


# ----------------------------------------------------------------------
# Builders and plain-data topology specs
# ----------------------------------------------------------------------
def single_link_topology(worker_ids: Sequence[str], network, name: str = "flat") -> Topology:
    """The degenerate topology: one private link per worker.

    Built from a :class:`~repro.simulation.network.NetworkModel`, this
    reproduces the flat cost model bit-for-bit (same latency/bandwidth
    arithmetic, one lognormal draw per transfer in the same order).
    """
    jitter = "none" if network.jitter == 0 else f"lognormal:{network.jitter!r}"
    links = [
        Link(
            name=f"link-{worker_id}",
            latency=network.latency,
            bandwidth_bytes_per_second=network.bandwidth_bytes_per_second,
            jitter=jitter,
        )
        for worker_id in worker_ids
    ]
    paths = {worker_id: (f"link-{worker_id}",) for worker_id in worker_ids}
    return Topology(name=name, links=links, paths=paths)


def rack_topology(
    worker_ids: Sequence[str],
    num_racks: int,
    leaf: dict,
    uplink: dict,
    name: str = "racks",
) -> Topology:
    """Racks of workers behind shared uplinks to the server spine.

    Each worker gets a private leaf link (``leaf``: latency/bandwidth/
    jitter); each rack one uplink (``uplink``; shared FIFO unless the dict
    says otherwise).  Workers are assigned to racks in contiguous blocks.
    """
    if num_racks <= 0:
        raise ValueError("num_racks must be positive")
    if not worker_ids:
        raise ValueError("worker_ids must not be empty")
    num_racks = min(int(num_racks), len(worker_ids))
    links: list[Link] = []
    paths: dict[str, tuple[str, ...]] = {}
    for rack in range(num_racks):
        links.append(
            Link(
                name=f"uplink-rack{rack}",
                latency=float(uplink["latency"]),
                bandwidth_bytes_per_second=float(uplink["bandwidth"]),
                jitter=str(uplink.get("jitter", "none")),
                shared=bool(uplink.get("shared", True)),
            )
        )
    for index, worker_id in enumerate(worker_ids):
        rack = index * num_racks // len(worker_ids)
        leaf_name = f"leaf-{worker_id}"
        links.append(
            Link(
                name=leaf_name,
                latency=float(leaf["latency"]),
                bandwidth_bytes_per_second=float(leaf["bandwidth"]),
                jitter=str(leaf.get("jitter", "none")),
                shared=bool(leaf.get("shared", False)),
            )
        )
        paths[worker_id] = (leaf_name, f"uplink-rack{rack}")
    return Topology(name=name, links=links, paths=paths)


#: Named topology presets a spec may refer to.  ``flat`` is the degenerate
#: single-link case built from the cluster's network profile; the rack
#: presets use fixed, documented numbers (a fast intra-rack leaf, a
#: contended inter-rack uplink) so sweeps are self-contained.  The
#: ``tail-heavy`` preset swaps the lognormal jitter for exponential tails —
#: the regime where bounded-staleness paradigms should shine or break.
TOPOLOGY_PRESETS = Registry("topology preset", {
    "flat": {"kind": "flat"},
    "two-rack": {
        "kind": "racks",
        "num_racks": 2,
        "leaf": {"latency": 2e-4, "bandwidth": 2.5e9, "jitter": "lognormal:0.1"},
        "uplink": {
            "latency": 2e-3,
            "bandwidth": 6e8,
            "jitter": "lognormal:0.2",
            "shared": True,
        },
    },
    "tail-heavy": {
        "kind": "racks",
        "num_racks": 2,
        "leaf": {"latency": 2e-4, "bandwidth": 2.5e9, "jitter": "exponential:0.25"},
        "uplink": {
            "latency": 2e-3,
            "bandwidth": 6e8,
            "jitter": "exponential:1.0",
            "shared": True,
        },
    },
})

_TOPOLOGY_KEYS = {"kind", "num_racks", "leaf", "uplink", "name"}
_LINK_SPEC_KEYS = {"latency", "bandwidth", "jitter", "shared"}


def available_topology_presets() -> tuple[str, ...]:
    """Named topology presets, sorted."""
    return tuple(sorted(TOPOLOGY_PRESETS))


def _validate_link_spec(data: dict, context: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"topology {context} must be a dict, got {type(data).__name__}")
    unknown = sorted(set(data) - _LINK_SPEC_KEYS)
    if unknown:
        raise ValueError(
            f"unknown topology {context} key(s) {unknown}; allowed: "
            f"{sorted(_LINK_SPEC_KEYS)}"
        )
    for key in ("latency", "bandwidth"):
        if key not in data:
            raise ValueError(f"topology {context} needs a {key!r} entry")
        value = float(data[key])
        if key == "latency" and value < 0:
            raise ValueError(f"topology {context} latency must be >= 0")
        if key == "bandwidth" and value <= 0:
            raise ValueError(f"topology {context} bandwidth must be > 0")
    parse_jitter_spec(str(data.get("jitter", "none")))


def canonical_topology_spec(spec: str | dict) -> dict:
    """Resolve a preset name or inline dict to the canonical dict form.

    Raises ``ValueError`` on unknown presets, unknown keys, unknown kinds
    and malformed link entries — this is the construction-time validation
    behind ``ClusterConfig.topology``.
    """
    if isinstance(spec, str):
        key = TOPOLOGY_PRESETS.key(spec)
        return dict(TOPOLOGY_PRESETS[key], name=key)
    if not isinstance(spec, dict):
        raise ValueError(
            "topology must be a preset name or a dict, got "
            f"{type(spec).__name__}"
        )
    unknown = sorted(set(spec) - _TOPOLOGY_KEYS)
    if unknown:
        raise ValueError(
            f"unknown topology key(s) {unknown}; allowed: {sorted(_TOPOLOGY_KEYS)}"
        )
    kind = spec.get("kind")
    if kind == "flat":
        extra = sorted(set(spec) - {"kind", "name"})
        if extra:
            raise ValueError(f"flat topology takes no {extra} entries")
        return {"kind": "flat", "name": str(spec.get("name", "flat"))}
    if kind == "racks":
        if int(spec.get("num_racks", 0)) <= 0:
            raise ValueError("racks topology needs a positive 'num_racks'")
        for part in ("leaf", "uplink"):
            if part not in spec:
                raise ValueError(f"racks topology needs a {part!r} link spec")
            _validate_link_spec(spec[part], part)
        return {
            "kind": "racks",
            "num_racks": int(spec["num_racks"]),
            "leaf": dict(spec["leaf"]),
            "uplink": dict(spec["uplink"]),
            "name": str(spec.get("name", "racks")),
        }
    raise ValueError(
        f"unknown topology kind {kind!r}; known kinds: 'flat', 'racks'"
    )


#: Raise ``ValueError`` unless ``spec`` describes a buildable topology.
validate_topology_spec = canonical_topology_spec


def build_topology(spec: str | dict | Topology, worker_ids: Sequence[str], network) -> Topology:
    """Materialize a topology for ``worker_ids``.

    ``spec`` may be a preset name, a canonical dict, or an already-built
    :class:`Topology` (validated against the worker ids and returned
    as-is).  ``network`` is the cluster's flat
    :class:`~repro.simulation.network.NetworkModel`, used by the
    degenerate ``flat`` kind.
    """
    if isinstance(spec, Topology):
        missing = [wid for wid in worker_ids if wid not in spec._paths]
        if missing:
            raise ValueError(
                f"topology {spec.name!r} has no path for worker(s) {missing}"
            )
        return spec
    data = canonical_topology_spec(spec)
    if data["kind"] == "flat":
        return single_link_topology(worker_ids, network, name=data.get("name", "flat"))
    return rack_topology(
        worker_ids,
        num_racks=data["num_racks"],
        leaf=data["leaf"],
        uplink=data["uplink"],
        name=data.get("name", "racks"),
    )


# ----------------------------------------------------------------------
# Communication patterns
# ----------------------------------------------------------------------
#: Communication patterns the simulated backend can cost.
COMM_PATTERNS = Registry("comm_pattern", {
    "ps": "push/pull against the parameter server",
    "ring_allreduce": "2*(n-1) chunked ring steps per synchronous round (BSP only)",
})
#: Normalize and validate a communication pattern name.
validate_comm_pattern = COMM_PATTERNS.key


def ring_allreduce_wire_bytes(payload_nbytes: float, num_workers: int) -> float:
    """Bytes each worker puts on the wire for one ring allreduce.

    ``2*(n-1)`` steps of ``payload/n`` bytes each: ``2*(n-1)/n * payload``
    per worker — bandwidth-optimal, independent of worker count in the
    limit, and the quantity the property suite pins.
    """
    if num_workers < 2:
        raise ValueError("ring allreduce needs at least 2 workers")
    if payload_nbytes < 0:
        raise ValueError("payload_nbytes must be >= 0")
    return 2.0 * (num_workers - 1) / num_workers * payload_nbytes


def ring_allreduce(arrays: Sequence[np.ndarray], average: bool = True) -> np.ndarray:
    """Numerically execute a chunked ring allreduce over ``arrays``.

    Reduce-scatter (``n-1`` steps, each hop *adding* the incoming partial
    chunk) followed by allgather.  Each chunk's sum is accumulated
    sequentially around the ring, so on identical inputs the result is
    bit-for-bit equal to the server's sequential sum-then-divide — the
    property the simulated ``ring_allreduce`` pattern relies on to keep
    the PS apply path as its numerical substrate.
    """
    if not arrays:
        raise ValueError("arrays must not be empty")
    n = len(arrays)
    first = np.asarray(arrays[0])
    for array in arrays[1:]:
        if np.asarray(array).shape != first.shape:
            raise ValueError("all arrays must share one shape")
    if n == 1:
        result = np.array(first, dtype=np.float64)
        return result
    partials = [np.array(array, dtype=np.float64).ravel() for array in arrays]
    # Chunk c covers bounds[c]:bounds[c+1]; np.array_split's balanced sizes.
    size = partials[0].size
    base, extra = divmod(size, n)
    bounds = [0]
    for c in range(n):
        bounds.append(bounds[-1] + base + (1 if c < extra else 0))

    def chunk(owner: int, c: int) -> np.ndarray:
        return partials[owner][bounds[c] : bounds[c + 1]]

    # Reduce-scatter: in step s worker i sends chunk (i - s) mod n to
    # worker i+1, which accumulates it.  After n-1 steps worker
    # (c + n - 1) mod n holds the full sum of chunk c.
    for step in range(n - 1):
        for i in range(n):
            c = (i - step) % n
            dst = (i + 1) % n
            incoming = chunk(i, c)
            chunk(dst, c)[:] = incoming + chunk(dst, c)
    out = np.empty(size, dtype=np.float64)
    for c in range(n):
        owner = (c + n - 1) % n
        out[bounds[c] : bounds[c + 1]] = chunk(owner, c)
    if average:
        out /= n
    return out.reshape(first.shape)


# ----------------------------------------------------------------------
# The topology-aware iteration time model
# ----------------------------------------------------------------------
class TopologyTimeModel:
    """Per-iteration times on a topology (PS push/pull or ring allreduce).

    Drop-in replacement for the communication leg of
    :class:`repro.simulation.workload.IterationTimeModel`: compute time
    still comes from the worker's device profile, but transfers traverse
    the link graph (paying FIFO queueing on shared links) instead of one
    flat link.  The model is stateful — it owns the run's
    :class:`TopologyState` — and must therefore be built fresh per run.

    ``time_scale`` is applied exactly as in the flat model
    (``scale*compute + scale*(push+pull)``), so a degenerate topology is
    bit-for-bit identical to the flat path; the queue timeline itself is
    kept in unscaled network seconds (callers pass scaled virtual ``now``,
    which is divided back — exact for the default ``time_scale=1.0``).

    For ``comm_pattern="ring_allreduce"`` the collective's cost is
    computed once per synchronous round — ``2*(n-1)`` steps, each gated by
    the slowest worker→neighbour chunk transfer, chunks queueing FIFO on
    shared uplinks — and shared by every worker of that round (the round
    is keyed by the worker's iteration count; BSP keeps those aligned).
    """

    def __init__(
        self,
        cost,
        batch_size: int,
        topology: Topology,
        *,
        time_scale: float = 1.0,
        push_wire_fraction: float = 1.0,
        comm_pattern: str = "ps",
        worker_ids: Sequence[str] | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if not 0.0 < push_wire_fraction <= 1.0:
            raise ValueError(
                f"push_wire_fraction must be in (0, 1], got {push_wire_fraction}"
            )
        self.cost = cost
        self.batch_size = int(batch_size)
        self.topology = topology
        self.time_scale = float(time_scale)
        self.push_wire_fraction = float(push_wire_fraction)
        self.comm_pattern = validate_comm_pattern(comm_pattern)
        self.worker_ids = list(worker_ids or topology.worker_ids)
        if self.comm_pattern == "ring_allreduce" and len(self.worker_ids) < 2:
            raise ValueError("ring allreduce needs at least 2 workers")
        self.state = topology.new_state()
        self._ring_round_times: dict[int, float] = {}

    # -- compute leg: identical arithmetic to IterationTimeModel ---------
    def _raw_compute(self, spec, rng: np.random.Generator | None) -> float:
        flops = self.cost.iteration_flops(self.batch_size) / spec.gpus_per_worker
        return spec.device.compute_time(flops, rng=rng)

    def compute_time(self, spec, rng: np.random.Generator | None = None) -> float:
        """Gradient-computation time of one iteration on ``spec``'s device."""
        return self.time_scale * self._raw_compute(spec, rng)

    # -- communication legs ---------------------------------------------
    def _ps_comm(self, worker_id: str, start: float, rng) -> float:
        path = self.topology.worker_path(worker_id)
        push = self.state.transfer(
            path,
            self.cost.parameter_bytes * self.push_wire_fraction,
            start=start,
            rng=rng,
            tag=f"{worker_id}:push",
        )
        pull = self.state.transfer(
            path,
            self.cost.parameter_bytes,
            start=start + push,
            rng=rng,
            tag=f"{worker_id}:pull",
        )
        return push + pull

    def _ring_round_time(self, round_index: int, start: float, rng) -> float:
        cached = self._ring_round_times.get(round_index)
        if cached is not None:
            return cached
        n = len(self.worker_ids)
        chunk_bytes = self.cost.parameter_bytes / n
        elapsed = 0.0
        for step in range(2 * (n - 1)):
            step_time = 0.0
            for index, worker_id in enumerate(self.worker_ids):
                neighbour = self.worker_ids[(index + 1) % n]
                duration = self.state.transfer(
                    self.topology.worker_to_worker_path(worker_id, neighbour),
                    chunk_bytes,
                    start=start + elapsed,
                    rng=rng,
                    tag=f"{worker_id}:ring{round_index}.{step}",
                )
                if duration > step_time:
                    step_time = duration
            elapsed += step_time
        self._ring_round_times[round_index] = elapsed
        # The cache only needs the active round (BSP keeps rounds aligned);
        # keep a couple behind it so a just-released straggler still hits.
        for key in [k for k in self._ring_round_times if k < round_index - 2]:
            del self._ring_round_times[key]
        return elapsed

    def communication_time(
        self,
        spec,
        rng: np.random.Generator | None = None,
        now: float = 0.0,
        round_index: int = 0,
    ) -> float:
        """Scaled communication time of one iteration starting at ``now``."""
        start = now / self.time_scale + self._raw_compute(spec, None)
        if self.comm_pattern == "ring_allreduce":
            return self.time_scale * self._ring_round_time(round_index, start, rng)
        return self.time_scale * self._ps_comm(spec.worker_id, start, rng)

    def iteration_time(
        self,
        spec,
        rng: np.random.Generator | None = None,
        now: float = 0.0,
        round_index: int = 0,
    ) -> float:
        """Total busy time of one iteration (compute plus communication).

        ``now`` is the scaled virtual time the iteration starts (the
        transfer joins the shared-link queues at ``now + compute``);
        ``round_index`` keys the ring collective's once-per-round cost.
        """
        raw_compute = self._raw_compute(spec, rng)
        start = now / self.time_scale + raw_compute
        if self.comm_pattern == "ring_allreduce":
            comm = self._ring_round_time(round_index, start, rng)
        else:
            comm = self._ps_comm(spec.worker_id, start, rng)
        return self.time_scale * raw_compute + self.time_scale * comm

    # -- accounting ------------------------------------------------------
    def ring_wire_bytes_per_iteration(self) -> float:
        """Model-costed bytes each worker wires per ring round."""
        return ring_allreduce_wire_bytes(
            self.cost.parameter_bytes, len(self.worker_ids)
        )
