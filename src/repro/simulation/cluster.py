"""Cluster specifications.

A cluster is a set of workers, each with a device profile and a network
link to the (single) parameter server, plus a count of local GPUs whose
gradients the worker aggregates before pushing.  Builders are provided for
the two environments of the paper:

* :func:`homogeneous_cluster` — N identical workers (the SOSCIP setup:
  4 workers, each with 4 P100 GPUs on Infiniband);
* :func:`heterogeneous_cluster` — workers with different devices (the
  GTX 1060 + GTX 1080 Ti Docker setup on Ethernet).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.network import GIGABIT_ETHERNET, INFINIBAND_EDR, NetworkModel
from repro.simulation.profiles import DeviceProfile, get_device_profile

__all__ = ["WorkerSpec", "ClusterSpec", "homogeneous_cluster", "heterogeneous_cluster"]


@dataclass(frozen=True)
class WorkerSpec:
    """One worker machine in the simulated cluster."""

    worker_id: str
    device: DeviceProfile
    network: NetworkModel
    gpus_per_worker: int = 1

    def __post_init__(self) -> None:
        if self.gpus_per_worker <= 0:
            raise ValueError("gpus_per_worker must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    """A full cluster: the worker machines (the server is implicit)."""

    workers: tuple[WorkerSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("a cluster needs at least one worker")
        ids = [worker.worker_id for worker in self.workers]
        if len(ids) != len(set(ids)):
            raise ValueError("worker ids must be unique")

    @property
    def num_workers(self) -> int:
        """Number of worker machines."""
        return len(self.workers)

    @property
    def worker_ids(self) -> list[str]:
        """Worker identifiers in declaration order."""
        return [worker.worker_id for worker in self.workers]

    def worker(self, worker_id: str) -> WorkerSpec:
        """Look up a worker spec by id."""
        for spec in self.workers:
            if spec.worker_id == worker_id:
                return spec
        raise KeyError(f"unknown worker {worker_id!r}")


def homogeneous_cluster(
    num_workers: int = 4,
    device: str | DeviceProfile = "p100",
    network: NetworkModel = INFINIBAND_EDR,
    gpus_per_worker: int = 4,
) -> ClusterSpec:
    """The paper's homogeneous environment: identical workers on Infiniband."""
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    profile = get_device_profile(device) if isinstance(device, str) else device
    workers = tuple(
        WorkerSpec(
            worker_id=f"worker-{index}",
            device=profile,
            network=network,
            gpus_per_worker=gpus_per_worker,
        )
        for index in range(num_workers)
    )
    return ClusterSpec(workers=workers)


def heterogeneous_cluster(
    devices: list[str | DeviceProfile] | None = None,
    network: NetworkModel = GIGABIT_ETHERNET,
    gpus_per_worker: int = 1,
) -> ClusterSpec:
    """The paper's heterogeneous environment (default: GTX 1080 Ti + GTX 1060)."""
    if devices is None:
        devices = ["gtx1080ti", "gtx1060"]
    if not devices:
        raise ValueError("devices must not be empty")
    workers = []
    for index, device in enumerate(devices):
        profile = get_device_profile(device) if isinstance(device, str) else device
        workers.append(
            WorkerSpec(
                worker_id=f"worker-{index}",
                device=profile,
                network=network,
                gpus_per_worker=gpus_per_worker,
            )
        )
    return ClusterSpec(workers=tuple(workers))
