"""Paradigm x topology sweep: tail latency under rack bottlenecks.

The paper's pitch is straggler tolerance, and stragglers live in the tail:
under a flat, lightly-jittered network the four paradigms' iteration times
barely differ, while behind a contended rack uplink with heavy-tailed
jitter BSP's barrier inherits every worker's worst transfer and the
bounded-staleness paradigms keep iterating.  This driver runs
BSP/ASP/SSP/DSSP across a list of topology presets on the simulated
backend and reports each run's p50/p90/p99 iteration intervals — the
numbers ``benchmarks/test_bench_topology.py`` records to
``BENCH_topology.json`` and gates on.

Everything goes through the public API (:class:`repro.api.ExperimentSpec`
with ``cluster.topology`` set), so the sweep exercises exactly what a
spec-file user gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ExperimentSpec

__all__ = [
    "SWEEP_PARADIGMS",
    "SWEEP_TOPOLOGIES",
    "TopologySweepRun",
    "sweep_devices",
    "sweep_spec",
    "run_topology_sweep",
    "sweep_payload",
]

#: The four paradigms of the paper's evaluation, with its headline settings.
SWEEP_PARADIGMS = Registry("sweep paradigm", {
    "bsp": {},
    "asp": {},
    "ssp": {"staleness": 3},
    "dssp": {"s_lower": 3, "s_upper": 15},
})

#: Presets ordered by tail weight: a private lognormal link per worker, two
#: racks behind shared lognormal uplinks, the same racks with exponential
#: tails on every link.
SWEEP_TOPOLOGIES: tuple[str, ...] = ("flat", "two-rack", "tail-heavy")


def sweep_devices(num_workers: int) -> tuple[str, ...]:
    """The sweep's mixed-GPU cluster (the paper's heterogeneous setup).

    Every 8th worker is the jittery ``straggler`` card, every remaining 4th
    a mid-range ``gtx1060``, the rest ``gtx1080ti`` — enough compute spread
    that BSP's barrier has a slowest worker to wait on, without a single
    machine so slow that its own iterations dominate every paradigm's
    pooled p99 (which would mask the synchronization gap the sweep is
    measuring).
    """
    devices = []
    for index in range(num_workers):
        if index % 8 == 7:
            devices.append("straggler")
        elif index % 4 == 3:
            devices.append("gtx1060")
        else:
            devices.append("gtx1080ti")
    return tuple(devices)


@dataclass(frozen=True)
class TopologySweepRun:
    """One (topology, paradigm) cell of the sweep."""

    topology: str
    paradigm: str
    paradigm_label: str
    num_workers: int
    total_time: float
    total_updates: int
    total_wait_time: float
    final_accuracy: float
    #: p50/p90/p99/mean/max of per-worker push-to-push intervals (waits
    #: included), pooled across workers; ``samples`` is the pool size.
    samples: int
    p50: float
    p90: float
    p99: float
    mean: float
    max: float

    def to_dict(self) -> dict:
        return {
            "topology": self.topology,
            "paradigm": self.paradigm,
            "paradigm_label": self.paradigm_label,
            "num_workers": self.num_workers,
            "total_time": self.total_time,
            "total_updates": self.total_updates,
            "total_wait_time": self.total_wait_time,
            "final_accuracy": self.final_accuracy,
            "samples": self.samples,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "mean": self.mean,
            "max": self.max,
        }


def sweep_spec(
    topology: str,
    paradigm: str,
    *,
    num_workers: int = 32,
    scale: str | dict = "tiny",
    workload: str = "mlp",
    epochs: float | None = 16.0,
    seed: int = 0,
) -> ExperimentSpec:
    """The spec one sweep cell runs (public, so tests can replay cells).

    The default ``epochs=16.0`` gives each of the 32 workers enough
    iterations (~20 per epoch globally at tiny scale) for staleness to
    accumulate and percentiles to stabilize; the framework's default
    budget leaves most workers with one or two pushes, where every
    paradigm looks identical.
    """
    # Imported here: repro.api itself imports repro.experiments.config, so a
    # module-level import would be circular.
    from repro.api.spec import ClusterConfig, ExperimentSpec

    paradigm = SWEEP_PARADIGMS.key(paradigm)
    return ExperimentSpec(
        name=f"topology-{topology}-{paradigm}",
        workload=workload,
        scale=scale,
        cluster=ClusterConfig(
            kind="heterogeneous",
            devices=sweep_devices(num_workers),
            gpus_per_worker=1,
            topology=topology,
        ),
        paradigm=paradigm,
        paradigm_kwargs=dict(SWEEP_PARADIGMS[paradigm]),
        epochs=epochs,
        seed=seed,
    )


def run_topology_sweep(
    *,
    num_workers: int = 32,
    scale: str | dict = "tiny",
    workload: str = "mlp",
    topologies: tuple[str, ...] = SWEEP_TOPOLOGIES,
    paradigms: tuple[str, ...] = ("bsp", "asp", "ssp", "dssp"),
    epochs: float | None = 16.0,
    seed: int = 0,
) -> list[TopologySweepRun]:
    """Run every (topology, paradigm) cell on the simulated backend."""
    from repro.api.backends import run_experiment

    runs: list[TopologySweepRun] = []
    for topology in topologies:
        for paradigm in paradigms:
            spec = sweep_spec(
                topology,
                paradigm,
                num_workers=num_workers,
                scale=scale,
                workload=workload,
                epochs=epochs,
                seed=seed,
            )
            result = run_experiment(spec, "simulated")
            if result.errors:
                raise RuntimeError(
                    f"sweep cell ({topology}, {paradigm}) failed: {result.errors}"
                )
            percentiles = result.iteration_time_percentiles
            runs.append(
                TopologySweepRun(
                    topology=topology,
                    paradigm=paradigm,
                    paradigm_label=result.paradigm_label,
                    num_workers=num_workers,
                    total_time=float(result.total_time),
                    total_updates=int(result.total_updates),
                    total_wait_time=float(result.total_wait_time),
                    final_accuracy=float(result.final_accuracy),
                    samples=percentiles.count,
                    p50=percentiles.p50,
                    p90=percentiles.p90,
                    p99=percentiles.p99,
                    mean=percentiles.mean,
                    max=percentiles.max,
                )
            )
    return runs


def sweep_payload(runs: list[TopologySweepRun], **extra) -> dict:
    """JSON-safe sweep summary with the per-topology p99 synchronization gaps.

    For each topology, ``p99_gap_vs_dssp`` maps every other paradigm to
    ``p99(paradigm) - p99(dssp)`` in virtual seconds — how much longer that
    paradigm's tail iteration takes than DSSP's — and
    ``p99_ratio_vs_dssp`` to the corresponding ratio.  The benchmark's
    headline gate is BSP's absolute gap *widening* as the topology's tail
    gets heavier: the barrier makes every worker inherit the round's worst
    transfer, so heavier per-link tails hit BSP's p99 harder than the
    bounded-staleness paradigms'.
    """
    by_topology: dict[str, dict[str, TopologySweepRun]] = {}
    for run in runs:
        by_topology.setdefault(run.topology, {})[run.paradigm] = run
    gaps: dict[str, dict[str, float]] = {}
    ratios: dict[str, dict[str, float]] = {}
    for topology, cells in by_topology.items():
        dssp = cells.get("dssp")
        if dssp is None or dssp.p99 <= 0:
            continue
        gaps[topology] = {
            paradigm: cells[paradigm].p99 - dssp.p99
            for paradigm in cells
            if paradigm != "dssp"
        }
        ratios[topology] = {
            paradigm: cells[paradigm].p99 / dssp.p99
            for paradigm in cells
            if paradigm != "dssp"
        }
    return {
        "runs": [run.to_dict() for run in runs],
        "p99_gap_vs_dssp": gaps,
        "p99_ratio_vs_dssp": ratios,
        **extra,
    }
