"""Network profiles of the link between a worker and the server.

One iteration of a worker transfers the gradient to the server (push) and
the fresh weights back (pull); both transfers move roughly the model's
parameter payload.  A :class:`NetworkModel` is the profile of one worker's
link — latency, bandwidth and lognormal jitter — that
:class:`~repro.simulation.cluster.WorkerSpec` carries; the ``flat``
topology (:func:`repro.simulation.topology.single_link_topology`) turns it
into that worker's private link, priced as ``latency + bytes / bandwidth``
per direction by :class:`repro.simulation.topology.TopologyTimeModel`.

The bandwidth/latency numbers are *effective parameter-server path* values —
the throughput the push/pull operations of a 2019 parameter-server stack
(serialization, per-key messages, TCP, server aggregation) actually achieve —
not raw wire speeds.  That is why the "Infiniband" profile is hundreds of
MB/s rather than 100 Gb/s: it is calibrated so the compute-to-communication
ratios of the paper's models land where its Section V-C discussion places
them (FC-bearing AlexNet communication-bound, pure-conv ResNets
computation-bound).

Profiles provided:

* :data:`INFINIBAND_EDR` — the paper's homogeneous SOSCIP cluster.
* :data:`GIGABIT_ETHERNET` — the paper's heterogeneous Docker setup.
* :data:`LOCAL_PCIE` — co-located server and worker (loopback).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkModel", "INFINIBAND_EDR", "GIGABIT_ETHERNET", "LOCAL_PCIE"]


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth profile of the link between a worker and the server."""

    name: str
    latency: float
    bandwidth_bytes_per_second: float
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth_bytes_per_second <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


#: Effective PS-path throughput on the paper's Infiniband EDR cluster.
INFINIBAND_EDR = NetworkModel(
    name="infiniband-edr", latency=4e-3, bandwidth_bytes_per_second=500e6
)
#: Effective PS-path throughput of the 1 GbE / Docker heterogeneous setup.
GIGABIT_ETHERNET = NetworkModel(
    name="gigabit-ethernet", latency=4e-3, bandwidth_bytes_per_second=110e6
)
#: Server and worker co-located on one machine (loopback / PCIe).
LOCAL_PCIE = NetworkModel(name="local-pcie", latency=1e-4, bandwidth_bytes_per_second=6e9)
