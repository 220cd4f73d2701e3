"""Discrete-event cluster simulator.

The paper's timing results come from real GPU clusters (homogeneous
4 x 4xP100 nodes over Infiniband; a heterogeneous GTX 1060 + GTX 1080 Ti
box).  The offline reproduction replaces the hardware with a discrete-event
simulation of the *time* components — per-iteration compute time from a
device profile, communication time from a network model, and waiting time
from the synchronization policy — while the *math* (gradients, weight
updates, staleness effects on accuracy) is computed for real with the NumPy
substrate.  The result is an accuracy-versus-virtual-time curve directly
comparable to the paper's figures.
"""

from repro.simulation.clock import VirtualClock
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.profiles import DeviceProfile, GPU_CATALOGUE, get_device_profile
from repro.simulation.network import NetworkModel, INFINIBAND_EDR, GIGABIT_ETHERNET, LOCAL_PCIE
from repro.simulation.cluster import WorkerSpec, ClusterSpec, homogeneous_cluster, heterogeneous_cluster
from repro.simulation.workload import ModelCost, estimate_model_cost
from repro.simulation.topology import (
    Link,
    Topology,
    TopologyState,
    TopologyTimeModel,
    TOPOLOGY_PRESETS,
    build_topology,
    single_link_topology,
    rack_topology,
)
from repro.simulation.trainer import SimulationOptions, SimulatedTraining

__all__ = [
    "VirtualClock",
    "Event",
    "EventKind",
    "EventQueue",
    "DeviceProfile",
    "GPU_CATALOGUE",
    "get_device_profile",
    "NetworkModel",
    "INFINIBAND_EDR",
    "GIGABIT_ETHERNET",
    "LOCAL_PCIE",
    "WorkerSpec",
    "ClusterSpec",
    "homogeneous_cluster",
    "heterogeneous_cluster",
    "ModelCost",
    "estimate_model_cost",
    "Link",
    "Topology",
    "TopologyState",
    "TopologyTimeModel",
    "TOPOLOGY_PRESETS",
    "build_topology",
    "single_link_topology",
    "rack_topology",
    "SimulationOptions",
    "SimulatedTraining",
]
