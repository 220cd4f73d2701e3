"""The declarative experiment specification.

An :class:`ExperimentSpec` is the single front door to the reproduction:
one plain-data description of *what* to run — workload, model scale,
cluster, synchronization paradigm, training budget, evaluation cadence and
parameter-store layout — that every backend (the discrete-event simulator,
the multi-process shared-memory runtime, the tcp parameter server, and
whatever comes next) executes identically.  Field-by-field
reference with validation rules: ``docs/spec-reference.md``.  Specs serialize losslessly to dicts and JSON, so experiments
can live in version-controlled files and be replayed byte-for-byte::

    spec = ExperimentSpec(workload="alexnet", scale="small", paradigm="ssp",
                          paradigm_kwargs={"staleness": 3})
    spec.save("experiment.json")
    # later, or on another machine:
    result = run_experiment(ExperimentSpec.load("experiment.json"))

Validation happens at construction: unknown paradigms, malformed
``paradigm_kwargs``, bad cluster shapes and slowdowns naming nonexistent
workers are all rejected before any training work starts.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.factory import make_policy, validate_paradigm
from repro.experiments.config import DEFAULT, SMALL, TINY, ExperimentScale
from repro.ps.aggregation import validate_aggregation_spec
from repro.ps.compression import validate_codec_spec
from repro.ps.faults import fault_entries, parse_fault_plan
from repro.ps.transport import parse_address
from repro.simulation.cluster import ClusterSpec, WorkerSpec
from repro.simulation.network import GIGABIT_ETHERNET, INFINIBAND_EDR, LOCAL_PCIE
from repro.simulation.profiles import get_device_profile
from repro.simulation.topology import canonical_topology_spec
from repro.utils.registry import Registry

__all__ = ["ClusterConfig", "ExperimentSpec", "NAMED_SCALES", "NETWORKS"]

#: Named experiment scales a spec may refer to.
NAMED_SCALES = Registry("scale", {"tiny": TINY, "small": SMALL, "default": DEFAULT})

#: Named network models a cluster config may refer to.
NETWORKS = Registry("network", {
    "infiniband": INFINIBAND_EDR,
    "ethernet": GIGABIT_ETHERNET,
    "local": LOCAL_PCIE,
})


def _reject_unknown_keys(data: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {context} key(s) {unknown}; allowed: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class ClusterConfig:
    """Serializable description of the worker cluster.

    ``kind="homogeneous"`` replicates ``device`` across ``num_workers``
    machines (the paper's SOSCIP setup); ``kind="heterogeneous"`` gives each
    entry of ``devices`` its own machine (the paper's mixed-GPU Docker
    setup).  ``network`` names a profile from :data:`NETWORKS`.  The
    process and tcp backends use only the worker *count* (their
    heterogeneity comes from :attr:`ExperimentSpec.slowdowns`); the
    simulated backend uses the full device and network models.

    ``address`` and ``heartbeat_timeout`` configure the socket-backed
    (``tcp``) backend and are ignored by every other backend: ``address``
    is the ``host:port`` the parameter server binds (port ``0`` asks the
    OS for an ephemeral port, the self-hosted localhost default), and a
    worker silent for ``heartbeat_timeout`` seconds is declared dead and
    deregistered from the synchronization policy.

    ``topology`` selects the simulated backend's network topology: a
    preset name (``"flat"``, ``"two-rack"``, ``"tail-heavy"``) or an
    inline topology dict (see
    :func:`repro.simulation.topology.canonical_topology_spec`).  ``None``
    means ``"flat"``: one private link per worker, built from that
    worker's own :class:`NetworkModel`.  Only the simulated
    backend models topologies — the wall-clock backends reject specs that
    set one rather than silently timing on real hardware.
    """

    kind: str = "homogeneous"
    num_workers: int = 4
    device: str = "p100"
    devices: tuple[str, ...] = ()
    network: str = "infiniband"
    gpus_per_worker: int = 1
    address: str = "127.0.0.1:0"
    heartbeat_timeout: float = 10.0
    topology: str | dict | None = None

    def __post_init__(self) -> None:
        if self.topology is not None:
            canonical_topology_spec(self.topology)  # raises on malformed specs
        if self.kind not in ("homogeneous", "heterogeneous"):
            raise ValueError(
                f"cluster kind must be 'homogeneous' or 'heterogeneous', got {self.kind!r}"
            )
        if self.kind == "homogeneous" and self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.kind == "heterogeneous" and not self.devices:
            raise ValueError("a heterogeneous cluster needs a non-empty 'devices' list")
        if self.gpus_per_worker <= 0:
            raise ValueError("gpus_per_worker must be positive")
        parse_address(self.address)  # raises on malformed host:port
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        object.__setattr__(self, "devices", tuple(self.devices))

    @property
    def worker_ids(self) -> list[str]:
        """Worker identifiers this cluster will create."""
        count = self.num_workers if self.kind == "homogeneous" else len(self.devices)
        return [f"worker-{index}" for index in range(count)]

    def replace(self, **overrides) -> "ClusterConfig":
        """A copy of this cluster config with ``overrides`` applied."""
        return dataclasses.replace(self, **overrides)

    def build(self) -> ClusterSpec:
        """Materialize the simulated :class:`ClusterSpec`."""
        network = NETWORKS[self.network]
        if self.kind == "homogeneous":
            names = [self.device] * self.num_workers
        else:
            names = list(self.devices)
        workers = tuple(
            WorkerSpec(
                worker_id=f"worker-{index}",
                device=get_device_profile(name),
                network=network,
                gpus_per_worker=self.gpus_per_worker,
            )
            for index, name in enumerate(names)
        )
        return ClusterSpec(workers=workers)

    def to_dict(self) -> dict:
        """Plain-data form (JSON-compatible)."""
        return {
            "kind": self.kind,
            "num_workers": self.num_workers,
            "device": self.device,
            "devices": list(self.devices),
            "network": self.network,
            "gpus_per_worker": self.gpus_per_worker,
            "address": self.address,
            "heartbeat_timeout": self.heartbeat_timeout,
            "topology": self.topology
            if self.topology is None or isinstance(self.topology, str)
            else dict(self.topology),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        allowed = {entry.name for entry in dataclasses.fields(cls)}
        _reject_unknown_keys(dict(data), allowed, "cluster")
        kwargs = dict(data)
        if "devices" in kwargs:
            kwargs["devices"] = tuple(kwargs["devices"])
        return cls(**kwargs)

    @classmethod
    def from_cluster_spec(cls, cluster: ClusterSpec) -> "ClusterConfig":
        """Best-effort serializable description of an existing cluster.

        Used for provenance when a pre-built :class:`ClusterSpec` is injected
        into a backend; custom device or network objects are recorded by
        their names even when those names are not in the catalogues.
        """
        device_names = [spec.device.name for spec in cluster.workers]
        network_names = {spec.network.name for spec in cluster.workers}
        by_model_name = {model.name: key for key, model in NETWORKS.items()}
        network = by_model_name.get(
            next(iter(network_names)), next(iter(network_names))
        )
        gpus = cluster.workers[0].gpus_per_worker
        if len(set(device_names)) == 1:
            return cls(
                kind="homogeneous",
                num_workers=cluster.num_workers,
                device=device_names[0],
                network=network,
                gpus_per_worker=gpus,
            )
        return cls(
            kind="heterogeneous",
            num_workers=cluster.num_workers,
            devices=tuple(device_names),
            network=network,
            gpus_per_worker=gpus,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: workload + cluster + paradigm + budget.

    Attributes
    ----------
    name:
        Free-form label recorded in results and file names.
    workload, workload_kwargs:
        Name in the workload registry
        (:data:`repro.experiments.workloads.WORKLOADS`) plus extra
        builder arguments (e.g. ``{"seed": 3}``).
    scale:
        The name of a preset (``"tiny"``/``"small"``/``"default"``), an
        inline dict of :class:`ExperimentScale` fields, or an
        :class:`ExperimentScale` instance (canonicalized to a dict at
        construction so specs stay plain data).
    cluster:
        The worker cluster (see :class:`ClusterConfig`).
    paradigm, paradigm_kwargs:
        Synchronization paradigm name (policy registry) and parameters;
        validated at construction.
    epochs, epoch_accounting, max_updates:
        Training budget.  ``epochs=None`` uses the scale's budget.  The
        wall-clock backends always convert epochs into an equal per-worker
        iteration count (the same *total* budget as the simulator's
        ``"global"`` accounting, distributed evenly); ``epoch_accounting``
        selects how the simulator distributes the budget, and
        ``max_updates`` is simulator-only (the wall-clock backends reject
        specs that set it rather than silently ignoring the cap).
    batch_size, learning_rate, momentum, weight_decay, lr_milestones, lr_decay:
        Optimization hyper-parameters (``batch_size=None`` uses the scale's).
        ``lr_milestones``/``lr_decay`` are currently simulator-only: the
        wall-clock backends reject specs that set them rather than silently
        training with a different schedule.
    evaluate_every_updates:
        Evaluate the global model every N server updates (``None`` uses the
        scale's cadence; ``0`` disables periodic evaluation).  Must be
        non-negative, whether set here or by an inline ``scale``.
    num_shards, shard_strategy, dtype:
        Parameter-store layout, identical semantics on every backend.
    slowdowns:
        Per-worker heterogeneity knob keyed by worker id.  The wall-clock
        backends sleep that many *seconds* per iteration; the simulated
        backend multiplies the worker's iteration time by the value.  Keys
        must name workers that exist in ``cluster``.
    compression:
        Optional gradient push codec spec, e.g. ``"topk:0.01"``, ``"fp16"``,
        ``"int8"``, ``"significance:2.0"`` or ``"none"`` (see
        :mod:`repro.ps.compression`; ``python -m repro registry`` lists the
        codecs).  Identical semantics on every backend: workers encode
        their pushed gradients, the server decodes into the fused update
        path, and ``RunResult.transfers`` records the bytes on the wire.
        Unknown codec names or malformed parameters are rejected here, at
        spec construction.
    aggregation:
        Optional server-side aggregator spec, e.g. ``"trimmed_mean:1"``,
        ``"median"``, ``"geomed"``, ``"clip:0.5"`` or ``"mean"`` (see
        :mod:`repro.ps.aggregation`).  ``None`` and ``"mean"`` keep the
        immediate-apply path — bit-for-bit identical to today's behavior;
        robust aggregators buffer each clock window of pushes on the
        server and apply their combination as one update.  Identical
        semantics on every backend.
    faults, net_faults:
        Optional chaos: two entry lists parsed together into one fault
        plan (:func:`repro.ps.faults.parse_fault_plan`), validated against
        the cluster here, at spec construction.  ``faults`` holds
        per-worker entries, e.g.
        ``[{"worker": 2, "kind": "byzantine", "mode": "sign_flip"}]``:
        crashes, transient/persistent gradient corruption and slow-node
        flapping, on every backend.  ``net_faults`` holds entries with a
        codec-style ``spec`` (``"delay:5"``, ``"drop:0.5,2"``,
        ``"partition:2,1"``, ``"throttle:1000000"``) and an optional
        ``worker`` target (index or id; omitted hits every worker).  The
        tcp backend injects every kind — faults tear real sockets and the
        run survives via reconnect/retry; the other backends move pushes
        through memory and reject any (each run's plan declares what its
        links support).  Both are
        injected deterministically from ``seed``; the run's chaos history
        is returned as ``RunResult.events``.
    seed:
        Master seed for data order, initialization and timing jitter.
    """

    name: str = "experiment"
    workload: str = "mlp"
    workload_kwargs: dict = field(default_factory=dict)
    scale: str | dict = "tiny"
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    paradigm: str = "dssp"
    paradigm_kwargs: dict = field(default_factory=lambda: {"s_lower": 3, "s_upper": 15})
    epochs: float | None = None
    epoch_accounting: str = "global"
    max_updates: int | None = None
    batch_size: int | None = None
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_milestones: tuple[float, ...] = ()
    lr_decay: float = 0.1
    evaluate_every_updates: int | None = None
    num_shards: int = 1
    shard_strategy: str = "size"
    dtype: str = "float64"
    slowdowns: dict = field(default_factory=dict)
    compression: str | None = None
    aggregation: str | None = None
    faults: tuple = ()
    net_faults: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "lr_milestones", tuple(self.lr_milestones))
        if self.compression is not None:
            validate_codec_spec(self.compression)
        if self.aggregation is not None:
            validate_aggregation_spec(self.aggregation)
        # Through the parser's own check: a bare mapping or string is refused, not split.
        object.__setattr__(self, "faults", fault_entries(self.faults, "fault"))
        net_faults = fault_entries(self.net_faults, "net fault")
        object.__setattr__(self, "net_faults", tuple(dict(entry) for entry in net_faults))
        parse_fault_plan(self.faults, self.net_faults, self.cluster.worker_ids)
        if isinstance(self.scale, ExperimentScale):
            object.__setattr__(self, "scale", dataclasses.asdict(self.scale))
        validate_paradigm(self.paradigm, self.paradigm_kwargs)
        self.resolved_scale()  # raises on unknown preset / bad inline scale
        if self.epochs is not None and self.epochs <= 0:
            raise ValueError("epochs must be positive when given")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValueError("batch_size must be positive when given")
        if self.max_updates is not None and self.max_updates <= 0:
            raise ValueError("max_updates must be positive when given")
        evaluate_every = self.resolved_evaluate_every_updates()
        if evaluate_every < 0:
            raise ValueError(
                "evaluate_every_updates must be non-negative (as a field or in "
                f"an inline scale), got {evaluate_every}"
            )
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.cluster.topology is not None and self.num_shards != 1:
            raise ValueError(
                "topology-aware timing models a single server endpoint; "
                "use num_shards=1 with a cluster topology"
            )
        if self.epoch_accounting not in ("global", "per_worker"):
            raise ValueError(
                "epoch_accounting must be 'global' or 'per_worker', "
                f"got {self.epoch_accounting!r}"
            )
        valid_ids = set(self.cluster.worker_ids)
        unknown = sorted(set(self.slowdowns) - valid_ids)
        if unknown:
            raise ValueError(
                f"slowdowns name nonexistent workers {unknown}; "
                f"valid ids: {sorted(valid_ids)}"
            )
        for worker_id, value in self.slowdowns.items():
            if float(value) <= 0:
                raise ValueError(
                    f"slowdown for {worker_id!r} must be positive, got {value}"
                )

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------
    def resolved_scale(self) -> ExperimentScale:
        """The :class:`ExperimentScale` this spec runs at."""
        if isinstance(self.scale, str):
            return NAMED_SCALES[self.scale]
        if not isinstance(self.scale, dict):
            raise ValueError(
                "scale must be a preset name, a dict of ExperimentScale "
                f"fields, or an ExperimentScale, got {type(self.scale).__name__}"
            )
        return ExperimentScale(**self.scale)

    def resolved_epochs(self) -> float:
        """Epoch budget (spec override or the scale's default)."""
        return self.epochs if self.epochs is not None else self.resolved_scale().epochs

    def resolved_batch_size(self) -> int:
        """Mini-batch size (spec override or the scale's default)."""
        if self.batch_size is not None:
            return self.batch_size
        return self.resolved_scale().batch_size

    def resolved_evaluate_every_updates(self) -> int:
        """Evaluation cadence (spec override or the scale's default)."""
        if self.evaluate_every_updates is not None:
            return self.evaluate_every_updates
        return self.resolved_scale().evaluate_every_updates

    @property
    def label(self) -> str:
        """Readable paradigm label, e.g. ``"DSSP s=3, r=12"``."""
        return make_policy(self.paradigm, **self.paradigm_kwargs).label

    def replace(self, **overrides) -> "ExperimentSpec":
        """A copy of this spec with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form: nested dicts/lists/scalars only (JSON-safe)."""
        return {
            "name": self.name,
            "workload": self.workload,
            "workload_kwargs": dict(self.workload_kwargs),
            "scale": self.scale if isinstance(self.scale, str) else dict(self.scale),
            "cluster": self.cluster.to_dict(),
            "paradigm": self.paradigm,
            "paradigm_kwargs": dict(self.paradigm_kwargs),
            "epochs": self.epochs,
            "epoch_accounting": self.epoch_accounting,
            "max_updates": self.max_updates,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "lr_milestones": list(self.lr_milestones),
            "lr_decay": self.lr_decay,
            "evaluate_every_updates": self.evaluate_every_updates,
            "num_shards": self.num_shards,
            "shard_strategy": self.shard_strategy,
            "dtype": self.dtype,
            "slowdowns": dict(self.slowdowns),
            "compression": self.compression,
            "aggregation": self.aggregation,
            "faults": [dict(entry) for entry in self.faults],
            "net_faults": [dict(entry) for entry in self.net_faults],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`.

        Unknown keys raise :class:`ValueError` (a typo in a spec file must
        not be silently ignored); all construction-time validation applies.
        """
        allowed = {entry.name for entry in dataclasses.fields(cls)}
        _reject_unknown_keys(dict(data), allowed, "spec")
        kwargs = dict(data)
        if "cluster" in kwargs and not isinstance(kwargs["cluster"], ClusterConfig):
            kwargs["cluster"] = ClusterConfig.from_dict(kwargs["cluster"])
        if "lr_milestones" in kwargs:
            kwargs["lr_milestones"] = tuple(kwargs["lr_milestones"])
        if "faults" in kwargs:
            kwargs["faults"] = tuple(kwargs["faults"])
        if "net_faults" in kwargs:
            kwargs["net_faults"] = tuple(kwargs["net_faults"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from its JSON rendering."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the spec to a JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        """Read a spec from a JSON file."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no experiment spec at {path}")
        return cls.from_json(path.read_text())
