"""Tests for the simulation primitives: clock, events, profiles, network,
cluster, workload cost model and traces."""

import numpy as np
import pytest

from repro.models import downsized_alexnet, resnet20
from repro.simulation.clock import VirtualClock
from repro.simulation.cluster import ClusterSpec, WorkerSpec, heterogeneous_cluster, homogeneous_cluster
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.network import GIGABIT_ETHERNET, INFINIBAND_EDR, NetworkModel
from repro.simulation.profiles import GPU_CATALOGUE, DeviceProfile, get_device_profile
from repro.simulation.topology import TopologyTimeModel, build_topology
from repro.simulation.trace import SimulationTrace
from repro.simulation.workload import ModelCost, estimate_model_cost


def link_transfer(network, nbytes):
    """One jitter-free transfer over the flat link built from ``network``."""
    topology = build_topology("flat", {"w": network})
    return topology.new_state().transfer(topology.worker_path("w"), nbytes)


def flat_time_model(cost, spec, **kwargs):
    """The simulator's time model on ``spec``'s own flat link."""
    topology = build_topology("flat", {spec.worker_id: spec.network})
    return TopologyTimeModel(cost, topology=topology, **kwargs)


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_cannot_go_backwards(self):
        clock = VirtualClock(start=3.0)
        with pytest.raises(ValueError):
            clock.advance_to(2.0)
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(Event(time=2.0, kind=EventKind.PUSH_ARRIVAL, worker_id="b"))
        queue.push(Event(time=1.0, kind=EventKind.PUSH_ARRIVAL, worker_id="a"))
        assert queue.peek().worker_id == "a"
        assert queue.pop().worker_id == "a"
        assert queue.pop().worker_id == "b"

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        queue.push(Event(time=1.0, kind=EventKind.PUSH_ARRIVAL, worker_id="first"))
        queue.push(Event(time=1.0, kind=EventKind.PUSH_ARRIVAL, worker_id="second"))
        assert queue.pop().worker_id == "first"

    def test_empty_queue_errors(self):
        queue = EventQueue()
        assert not queue
        with pytest.raises(IndexError):
            queue.pop()
        with pytest.raises(IndexError):
            queue.peek()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(Event(time=-1.0, kind=EventKind.PUSH_ARRIVAL))


class TestDeviceProfiles:
    def test_catalogue_contains_paper_gpus(self):
        assert {"p100", "gtx1080ti", "gtx1060"} <= set(GPU_CATALOGUE)
        assert get_device_profile("P100").name == "p100"
        with pytest.raises(KeyError):
            get_device_profile("tpu")

    def test_relative_speed_matches_peak_flops(self):
        fast = get_device_profile("gtx1080ti")
        slow = get_device_profile("gtx1060")
        flops = 1e12
        assert slow.compute_time(flops) > fast.compute_time(flops)

    def test_compute_time_includes_overhead(self):
        profile = DeviceProfile(name="x", peak_flops=1e12, per_iteration_overhead=0.5, jitter=0)
        assert profile.compute_time(0.0) == pytest.approx(0.5)

    def test_jitter_is_reproducible_with_rng(self):
        profile = get_device_profile("p100")
        a = profile.compute_time(1e9, rng=np.random.default_rng(0))
        b = profile.compute_time(1e9, rng=np.random.default_rng(0))
        c = profile.compute_time(1e9, rng=np.random.default_rng(1))
        assert a == b
        assert a != c

    def test_scaled_profile(self):
        base = get_device_profile("p100")
        faster = base.scaled(2.0)
        assert faster.sustained_flops == pytest.approx(2 * base.sustained_flops)
        with pytest.raises(ValueError):
            base.scaled(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile(name="x", peak_flops=0)
        with pytest.raises(ValueError):
            DeviceProfile(name="x", peak_flops=1e12, efficiency=0.0)
        with pytest.raises(ValueError):
            get_device_profile("p100").compute_time(-1.0)


class TestNetworkModels:
    def test_transfer_time_scales_with_bytes(self):
        assert link_transfer(GIGABIT_ETHERNET, 10_000_000) > link_transfer(GIGABIT_ETHERNET, 1_000)

    def test_round_trip_is_two_transfers(self):
        model = NetworkModel(name="x", latency=0.001, bandwidth_bytes_per_second=1e6, jitter=0)
        spec = homogeneous_cluster(num_workers=1, network=model).workers[0]
        cost = ModelCost(flops_per_sample=1.0, num_parameters=250_000, parameter_bytes=1_000_000)
        round_trip = flat_time_model(cost, spec, batch_size=1).communication_time(spec)
        assert round_trip == pytest.approx(2 * link_transfer(model, 1_000_000))

    def test_infiniband_faster_than_ethernet(self):
        payload = 5_000_000
        assert link_transfer(INFINIBAND_EDR, payload) < link_transfer(GIGABIT_ETHERNET, payload)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(name="x", latency=-1, bandwidth_bytes_per_second=1)
        with pytest.raises(ValueError):
            NetworkModel(name="x", latency=0, bandwidth_bytes_per_second=0)
        with pytest.raises(ValueError):
            link_transfer(GIGABIT_ETHERNET, -5)


class TestClusterSpecs:
    def test_homogeneous_cluster_matches_paper_setup(self):
        cluster = homogeneous_cluster(num_workers=4, gpus_per_worker=4)
        assert cluster.num_workers == 4
        assert all(spec.device.name == "p100" for spec in cluster.workers)
        assert all(spec.gpus_per_worker == 4 for spec in cluster.workers)

    def test_heterogeneous_cluster_default_devices(self):
        cluster = heterogeneous_cluster()
        assert [spec.device.name for spec in cluster.workers] == ["gtx1080ti", "gtx1060"]

    def test_worker_lookup(self):
        cluster = homogeneous_cluster(num_workers=2)
        assert cluster.worker("worker-1").worker_id == "worker-1"
        with pytest.raises(KeyError):
            cluster.worker("worker-9")

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(workers=())
        spec = homogeneous_cluster(num_workers=1).workers[0]
        with pytest.raises(ValueError):
            ClusterSpec(workers=(spec, spec))
        with pytest.raises(ValueError):
            homogeneous_cluster(num_workers=0)
        with pytest.raises(ValueError):
            heterogeneous_cluster(devices=[])
        with pytest.raises(ValueError):
            WorkerSpec(worker_id="w", device=spec.device, network=spec.network, gpus_per_worker=0)


class TestWorkloadCostModel:
    def test_alexnet_cost_is_positive_and_fc_heavy(self):
        model = downsized_alexnet(num_classes=10, image_size=32, width=32, fc_width=256)
        cost = estimate_model_cost(model, (3, 32, 32))
        assert cost.flops_per_sample > 0
        assert cost.num_parameters == model.num_parameters()
        assert cost.parameter_bytes == 4 * cost.num_parameters

    def test_resnet_has_higher_compute_to_communication_ratio_than_alexnet(self):
        """The structural fact behind the paper's Section V-C discussion."""
        alexnet = downsized_alexnet(num_classes=10, image_size=32, width=32, fc_width=256)
        resnet = resnet20(num_classes=100, base_width=16)
        alexnet_cost = estimate_model_cost(alexnet, (3, 32, 32))
        resnet_cost = estimate_model_cost(resnet, (3, 32, 32))
        assert (
            resnet_cost.flops_per_sample / resnet_cost.parameter_bytes
            > alexnet_cost.flops_per_sample / alexnet_cost.parameter_bytes
        )

    def test_iteration_time_model_components(self):
        model = downsized_alexnet(num_classes=10, image_size=32, width=32, fc_width=256)
        cost = estimate_model_cost(model, (3, 32, 32))
        cluster = homogeneous_cluster(num_workers=1, gpus_per_worker=4)
        spec = cluster.workers[0]
        time_model = flat_time_model(cost, spec, batch_size=128)
        compute = time_model.compute_time(spec)
        comm = time_model.communication_time(spec)
        assert compute > 0 and comm > 0
        assert time_model.iteration_time(spec) == pytest.approx(compute + comm)
        assert time_model.compute_to_communication_ratio(spec) == pytest.approx(compute / comm)

    def test_more_gpus_per_worker_reduce_compute_time(self):
        model = resnet20(num_classes=10, base_width=8)
        cost = estimate_model_cost(model, (3, 16, 16))
        single = homogeneous_cluster(num_workers=1, gpus_per_worker=1).workers[0]
        quad = homogeneous_cluster(num_workers=1, gpus_per_worker=4).workers[0]
        time_model = flat_time_model(cost, single, batch_size=64)
        assert time_model.compute_time(quad) < time_model.compute_time(single)

    def test_validation(self):
        model = resnet20(num_classes=10, base_width=4)
        cost = estimate_model_cost(model, (3, 8, 8))
        spec = homogeneous_cluster(num_workers=1).workers[0]
        with pytest.raises(ValueError):
            flat_time_model(cost, spec, batch_size=0)
        with pytest.raises(ValueError):
            flat_time_model(cost, spec, batch_size=8, time_scale=0)
        for fractions in ((), (0.5, 0.0, 0.5), (0.5, 0.4)):
            with pytest.raises(ValueError, match="shard_fractions"):
                flat_time_model(cost, spec, batch_size=8, shard_fractions=fractions)
        with pytest.raises(ValueError):
            estimate_model_cost(model, ())
        with pytest.raises(ValueError):
            cost.iteration_flops(0)

    def test_slowest_shard_gates_each_leg(self):
        # Every shard ships a whole number of bytes; one server ships the
        # codec's fraction of the payload untruncated.
        network = NetworkModel(name="x", latency=0.5, bandwidth_bytes_per_second=10.0, jitter=0)
        spec = homogeneous_cluster(num_workers=1, network=network).workers[0]
        cost = ModelCost(flops_per_sample=1.0, num_parameters=250, parameter_bytes=1001)
        sharded = flat_time_model(
            cost, spec, batch_size=1, shard_fractions=(0.25, 0.75), push_wire_fraction=0.1
        )
        push = link_transfer(network, int(1001 * 0.75 * 0.1))
        pull = link_transfer(network, int(1001 * 0.75))
        assert sharded.communication_time(spec) == push + pull
        single = flat_time_model(cost, spec, batch_size=1, push_wire_fraction=0.1)
        push = link_transfer(network, 1001 * 0.1)
        assert single.communication_time(spec) == push + link_transfer(network, 1001)


class TestSimulationTrace:
    def test_records_and_queries(self):
        trace = SimulationTrace()
        trace.push(0.0, "a")
        trace.push(1.0, "a")
        trace.push(1.5, "b")
        assert np.allclose(trace.push_times("a"), [0.0, 1.0])
        assert np.allclose(trace.push_times("b"), [1.5])
        assert trace.push_times("c").size == 0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            SimulationTrace().push(-1.0, "a")
