"""The simulator's network cost model.

Every simulated push and pull is priced here, on a link graph.
A :class:`~repro.simulation.network.NetworkModel` (one worker's private
latency+bandwidth link) cannot produce the two effects real clusters hit
DSSP with: *rack bottlenecks* (many workers funneling through one shared
uplink, so transfers queue behind each other) and *heavy-tailed jitter*
(the occasional transfer that takes 10x the median, which is exactly the
straggler regime the paper's dynamic staleness bound targets).  So:

* a :class:`Link` is one ``latency + bytes/bandwidth`` hop with a pluggable
  jitter distribution (``none``, ``lognormal``, and the heavy-tailed
  ``exponential`` / ``pareto``);
* shared links (``shared=True``) serve transfers FIFO — a transfer arriving
  while the link is busy waits for the queue to drain, and every wait is
  recorded in the state's queue trace;
* a :class:`Topology` maps each worker to its uplink path (worker → server);
* :class:`TopologyTimeModel` is the simulator's one time model: compute on
  the worker's device plus path traversals for the PS push/pull pair (split
  across server shards when the store is sharded).

``topology: null`` means the ``flat`` preset: :func:`single_link_topology`
gives each worker one private, lognormal-jittered link built from that
worker's own :class:`~repro.simulation.network.NetworkModel`.  Its virtual
times are pinned as golden values in
``tests/simulation/test_topology_parity.py``.  All times inside the
topology are *unscaled* network seconds; :class:`TopologyTimeModel`
applies ``time_scale`` to the compute and communication legs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.simulation.network import NetworkModel
from repro.utils.registry import Registry

__all__ = [
    "Link",
    "Topology",
    "TopologyState",
    "TopologyTimeModel",
    "JITTERS",
    "parse_jitter_spec",
    "make_jitter",
    "single_link_topology",
    "rack_topology",
    "TOPOLOGY_PRESETS",
    "canonical_topology_spec",
    "validate_topology_spec",
    "build_topology",
]


# ----------------------------------------------------------------------
# Jitter distributions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LogNormalJitter:
    """A network profile's multiplicative jitter: ``exp(N(0, sigma))``."""

    sigma: float

    def draw(self, rng: np.random.Generator) -> float:
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

    A zero parameter collapses to ``None``: a jitter-free link draws
    nothing from the timing stream, so turning one link's jitter off does
    not shift every other link's draws.
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
        by pure accumulation so a single private link is exactly
        ``(latency + nbytes/bandwidth) * jitter``.  A zero-byte transfer
        still pays every link's latency.
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


# ----------------------------------------------------------------------
# Builders and plain-data topology specs
# ----------------------------------------------------------------------
def single_link_topology(networks: Mapping[str, NetworkModel], name: str = "flat") -> Topology:
    """The ``flat`` topology: one private link per worker.

    ``networks`` maps each worker id to its own
    :class:`~repro.simulation.network.NetworkModel`; the worker's link has
    that profile's latency and bandwidth and draws its lognormal jitter
    (none when the profile's jitter is 0).
    """
    links = [
        Link(
            name=f"link-{worker_id}",
            latency=network.latency,
            bandwidth_bytes_per_second=network.bandwidth_bytes_per_second,
            jitter="none" if network.jitter == 0 else f"lognormal:{network.jitter!r}",
        )
        for worker_id, network in networks.items()
    ]
    paths = {worker_id: (f"link-{worker_id}",) for worker_id in networks}
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


#: Named topology presets a spec may refer to.  ``flat`` (what ``None``
#: means) is one private link per worker built from that worker's network
#: profile; the rack presets use fixed, documented numbers (a fast
#: intra-rack leaf, a contended inter-rack uplink) so sweeps are
#: self-contained.  The ``tail-heavy`` preset swaps the lognormal jitter
#: for exponential tails — the regime where bounded-staleness paradigms
#: should shine or break.
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


def build_topology(
    spec: str | dict | Topology, networks: Mapping[str, NetworkModel]
) -> Topology:
    """Materialize a topology for the workers of ``networks``.

    ``networks`` maps each worker id to its
    :class:`~repro.simulation.network.NetworkModel`; the ``flat`` kind
    builds each worker's link from it, the rack kinds use only the ids.
    ``spec`` may be a preset name, a canonical dict, or an already-built
    :class:`Topology` (validated against the worker ids and returned
    as-is).
    """
    if isinstance(spec, Topology):
        missing = [wid for wid in networks if wid not in spec._paths]
        if missing:
            raise ValueError(
                f"topology {spec.name!r} has no path for worker(s) {missing}"
            )
        return spec
    data = canonical_topology_spec(spec)
    if data["kind"] == "flat":
        return single_link_topology(networks, name=data.get("name", "flat"))
    return rack_topology(
        list(networks),
        num_racks=data["num_racks"],
        leaf=data["leaf"],
        uplink=data["uplink"],
        name=data.get("name", "racks"),
    )


# ----------------------------------------------------------------------
# The topology-aware iteration time model
# ----------------------------------------------------------------------
class TopologyTimeModel:
    """Per-iteration times of the PS push/pull pair on a topology.

    The simulator's one time model: compute time comes from the worker's
    device profile, and transfers traverse the link graph (paying FIFO
    queueing on shared links).  The model is stateful — it owns the run's
    :class:`TopologyState` — and must therefore be built fresh per run.

    ``time_scale`` uniformly stretches both legs
    (``scale*compute + scale*(push+pull)``); the experiment harness uses it
    to map scaled-down models onto second-scale iteration times without
    affecting any ratio.  The queue timeline itself is kept in unscaled
    network seconds (callers pass scaled virtual ``now``, which is divided
    back — exact for the default ``time_scale=1.0``).

    ``shard_fractions`` is each server shard's fraction of the parameter
    payload, taken from the sharded store's partition; the default
    ``(1.0,)`` is the single server.  Per-shard transfers run in parallel,
    so the slowest shard gates each leg; every shard ships a whole number
    of bytes and pays the path latency, which is why sharding a tiny,
    latency-dominated payload buys nothing.  ``push_wire_fraction`` scales
    only the push leg — the gradient a compressing codec ships
    (:meth:`repro.ps.compression.GradientCodec.wire_fraction`); pulls stay
    dense.  Jitter draws go compute, then every push shard, then every pull
    shard.
    """

    def __init__(
        self,
        cost,
        batch_size: int,
        topology: Topology,
        *,
        time_scale: float = 1.0,
        shard_fractions: Sequence[float] = (1.0,),
        push_wire_fraction: float = 1.0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if not shard_fractions or any(f <= 0 for f in shard_fractions):
            raise ValueError("shard_fractions must be non-empty and positive")
        if not np.isclose(sum(shard_fractions), 1.0, atol=1e-6):
            raise ValueError(
                f"shard_fractions must sum to 1, got {sum(shard_fractions)}"
            )
        if not 0.0 < push_wire_fraction <= 1.0:
            raise ValueError(
                f"push_wire_fraction must be in (0, 1], got {push_wire_fraction}"
            )
        self.cost = cost
        self.batch_size = int(batch_size)
        self.topology = topology
        self.time_scale = float(time_scale)
        self.shard_fractions = tuple(float(f) for f in shard_fractions)
        self.push_wire_fraction = float(push_wire_fraction)
        self.state = topology.new_state()
        payload = cost.parameter_bytes
        if self.shard_fractions == (1.0,):
            self._push_bytes = (payload * self.push_wire_fraction,)
            self._pull_bytes = (payload,)
        else:
            shard_bytes = [payload * fraction for fraction in self.shard_fractions]
            self._push_bytes = tuple(int(b * self.push_wire_fraction) for b in shard_bytes)
            self._pull_bytes = tuple(int(b) for b in shard_bytes)

    # -- compute leg -----------------------------------------------------
    def _raw_compute(self, spec, rng: np.random.Generator | None) -> float:
        # The worker's local GPUs split the mini-batch evenly.
        flops = self.cost.iteration_flops(self.batch_size) / spec.gpus_per_worker
        return spec.device.compute_time(flops, rng=rng)

    def compute_time(self, spec, rng: np.random.Generator | None = None) -> float:
        """Gradient-computation time of one iteration on ``spec``'s device."""
        return self.time_scale * self._raw_compute(spec, rng)

    # -- communication legs ---------------------------------------------
    def _ps_comm(self, worker_id: str, start: float, rng) -> float:
        path = self.topology.worker_path(worker_id)
        push = max(
            self.state.transfer(path, nbytes, start=start, rng=rng, tag=f"{worker_id}:push")
            for nbytes in self._push_bytes
        )
        pull = max(
            self.state.transfer(
                path, nbytes, start=start + push, rng=rng, tag=f"{worker_id}:pull"
            )
            for nbytes in self._pull_bytes
        )
        return push + pull

    def communication_time(
        self,
        spec,
        rng: np.random.Generator | None = None,
        now: float = 0.0,
    ) -> float:
        """Scaled communication time of one iteration starting at ``now``."""
        start = now / self.time_scale + self._raw_compute(spec, None)
        return self.time_scale * self._ps_comm(spec.worker_id, start, rng)

    def iteration_time(
        self,
        spec,
        rng: np.random.Generator | None = None,
        now: float = 0.0,
    ) -> float:
        """Total busy time of one iteration (compute plus communication).

        ``now`` is the scaled virtual time the iteration starts (the
        transfer joins the shared-link queues at ``now + compute``).
        """
        raw_compute = self._raw_compute(spec, rng)
        start = now / self.time_scale + raw_compute
        comm = self._ps_comm(spec.worker_id, start, rng)
        return self.time_scale * raw_compute + self.time_scale * comm

    def compute_to_communication_ratio(self, spec) -> float:
        """The jitter-free ratio the paper's Section V-C discussion is based on."""
        return self.compute_time(spec) / max(self.communication_time(spec), 1e-12)

