"""Golden-value and determinism gates for the simulator's time model.

Two invariants protect the historical numbers:

* **Flat golden pin** — ``topology=None`` and ``topology="flat"`` (one
  private link per worker, built from that worker's own
  :class:`~repro.simulation.network.NetworkModel`) reproduce recorded
  virtual times *bit-for-bit*: evaluation times, per-worker waits and
  iteration-time percentiles, stored as ``float.hex``, for all four
  paradigms with jitter on and off, and on a mixed InfiniBand + GbE
  cluster at one and four server shards.  The values were recorded from
  the retired ``IterationTimeModel`` + ``NetworkModel`` path; any drift
  here silently invalidates every historical result.
* **Determinism** — a 256-worker run behind tail-heavy racks replays
  identically from the same seed: same event log, same FIFO queue trace,
  same iteration-time percentiles.  The sweep suite's recorded numbers are
  only meaningful because of this.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.models import mlp
from repro.ps.plan import TrainingPlan
from repro.simulation.cluster import ClusterSpec, WorkerSpec, homogeneous_cluster
from repro.simulation.network import GIGABIT_ETHERNET, INFINIBAND_EDR, NetworkModel
from repro.simulation.profiles import get_device_profile
from repro.simulation.trainer import SimulatedTraining, SimulationOptions
from repro.simulation.workload import estimate_model_cost

PARADIGMS = ("bsp", "asp", "ssp", "dssp")


def paradigm_kwargs(paradigm):
    if paradigm == "ssp":
        return {"staleness": 2}
    if paradigm == "dssp":
        return {"s_lower": 1, "s_upper": 4}
    return {}


def builder_for(train: ArrayDataset):
    input_dim = train.inputs.shape[1]

    def builder(rng: np.random.Generator):
        return mlp(input_dim=input_dim, hidden_dims=(16,), num_classes=4, rng=rng)

    return builder


def network(jitter: float) -> NetworkModel:
    return NetworkModel(
        name="parity",
        latency=1e-3,
        bandwidth_bytes_per_second=5e8,
        jitter=jitter,
    )


def run(
    train, test, paradigm, *, jitter, topology, num_workers=4, seed=0,
    epochs=2.0, cluster=None, num_shards=1, **options,
):
    cluster = cluster or homogeneous_cluster(
        num_workers=num_workers, gpus_per_worker=1, network=network(jitter)
    )
    plan = TrainingPlan(
        paradigm=paradigm,
        paradigm_kwargs=paradigm_kwargs(paradigm),
        num_workers=cluster.num_workers,
        batch_size=16,
        learning_rate=0.05,
        evaluate_every_pushes=8,
        num_shards=num_shards,
        seed=seed,
    )
    workload = SimpleNamespace(
        model_builder=builder_for(train), train_dataset=train, test_dataset=test
    )
    options = SimulationOptions(cluster=cluster, epochs=epochs, topology=topology, **options)
    return SimulatedTraining(plan, workload, options).run()


def hexed(result) -> dict:
    """A run's virtual timing as ``float.hex`` strings (waits in worker order)."""
    return {
        "total": result.total_time.hex(),
        "times": [t.hex() for t in result.times.tolist()],
        "waits": [w.hex() for w in result.wait_time_per_worker.values()],
        "iteration": {
            key: value.hex() if isinstance(value, float) else value
            for key, value in result.iteration_time_percentiles.to_dict().items()
        },
    }


# Recorded from the IterationTimeModel + NetworkModel path this time model
# replaced (``topology=None`` before the two were merged).
FLAT_GOLDEN = {
    ("bsp", 0.0): {
        "total": "0x1.3e1232d238a1bp-5",
        "times": [
            "0x0.0p+0", "0x1.0188621b46cd0p-6", "0x1.05164197110e8p-5",
            "0x1.3e1232d238a1bp-5",
        ],
        "waits": [
            "0x1.d3f044cc1840ep-8", "0x1.8468033c1ed11p-8", "0x1.23012ad1876a4p-10",
            "0x1.90faab4b8f414p-9",
        ],
        "iteration": {
            "count": 20, "p50": "0x1.da6f6e576aad8p-8",
            "p90": "0x1.2d81c12ec40d8p-7", "p99": "0x1.4a4af3b7d67b8p-7",
            "mean": "0x1.f702dffb471e5p-8", "max": "0x1.4c7639ed9c7dbp-7",
        },
    },
    ("bsp", 0.2): {
        "total": "0x1.3b2ecdd00622dp-5",
        "times": [
            "0x0.0p+0", "0x1.106fcab787bd8p-6", "0x1.fcf3dbffa72b6p-6",
            "0x1.3b2ecdd00622dp-5",
        ],
        "waits": [
            "0x1.848b69e86dfbdp-8", "0x1.f475ed1cb7414p-9", "0x1.ab9958a3205a0p-9",
            "0x1.3424f8d62c983p-8",
        ],
        "iteration": {
            "count": 20, "p50": "0x1.da9f0a8195b50p-8",
            "p90": "0x1.3fd58e0fd9a39p-7", "p99": "0x1.4525b994aba3bp-7",
            "mean": "0x1.ef1417d39a876p-8", "max": "0x1.459359e93ba48p-7",
        },
    },
    ("asp", 0.0): {
        "total": "0x1.29e20739f6be5p-5",
        "times": [
            "0x0.0p+0", "0x1.00f5031c4ffb4p-6", "0x1.e1cc2bfd9e564p-6",
            "0x1.29e20739f6be5p-5",
        ],
        "waits": [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ],
        "iteration": {
            "count": 20, "p50": "0x1.ae4959117a0bdp-8",
            "p90": "0x1.1245f15df6289p-7", "p99": "0x1.29d387d0186afp-7",
            "mean": "0x1.c46f38e508fb8p-8", "max": "0x1.2b58b8aed9c25p-7",
        },
    },
    ("asp", 0.2): {
        "total": "0x1.27764a7781b6dp-5",
        "times": [
            "0x0.0p+0", "0x1.106fcab787bd8p-6", "0x1.ec59f660a3840p-6",
            "0x1.27764a7781b6dp-5",
        ],
        "waits": [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ],
        "iteration": {
            "count": 20, "p50": "0x1.b49e70ced5a77p-8",
            "p90": "0x1.e5b4500208333p-8", "p99": "0x1.2981ae287b2c4p-7",
            "mean": "0x1.be41af6b4fe60p-8", "max": "0x1.3645959f168f8p-7",
        },
    },
    ("ssp", 0.0): {
        "total": "0x1.29e20739f6be5p-5",
        "times": [
            "0x0.0p+0", "0x1.00f5031c4ffb4p-6", "0x1.e1cc2bfd9e564p-6",
            "0x1.29e20739f6be5p-5",
        ],
        "waits": [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ],
        "iteration": {
            "count": 20, "p50": "0x1.ae4959117a0bdp-8",
            "p90": "0x1.1245f15df6289p-7", "p99": "0x1.29d387d0186afp-7",
            "mean": "0x1.c46f38e508fb8p-8", "max": "0x1.2b58b8aed9c25p-7",
        },
    },
    ("ssp", 0.2): {
        "total": "0x1.27764a7781b6dp-5",
        "times": [
            "0x0.0p+0", "0x1.106fcab787bd8p-6", "0x1.ec59f660a3840p-6",
            "0x1.27764a7781b6dp-5",
        ],
        "waits": [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ],
        "iteration": {
            "count": 20, "p50": "0x1.b49e70ced5a77p-8",
            "p90": "0x1.e5b4500208333p-8", "p99": "0x1.2981ae287b2c4p-7",
            "mean": "0x1.be41af6b4fe60p-8", "max": "0x1.3645959f168f8p-7",
        },
    },
    ("dssp", 0.0): {
        "total": "0x1.29e20739f6be5p-5",
        "times": [
            "0x0.0p+0", "0x1.00f5031c4ffb4p-6", "0x1.e1cc2bfd9e564p-6",
            "0x1.29e20739f6be5p-5",
        ],
        "waits": [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ],
        "iteration": {
            "count": 20, "p50": "0x1.ae4959117a0bdp-8",
            "p90": "0x1.1245f15df6289p-7", "p99": "0x1.29d387d0186afp-7",
            "mean": "0x1.c46f38e508fb8p-8", "max": "0x1.2b58b8aed9c25p-7",
        },
    },
    ("dssp", 0.2): {
        "total": "0x1.27764a7781b6dp-5",
        "times": [
            "0x0.0p+0", "0x1.106fcab787bd8p-6", "0x1.ec59f660a3840p-6",
            "0x1.27764a7781b6dp-5",
        ],
        "waits": [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ],
        "iteration": {
            "count": 20, "p50": "0x1.b49e70ced5a77p-8",
            "p90": "0x1.e5b4500208333p-8", "p99": "0x1.2981ae287b2c4p-7",
            "mean": "0x1.be41af6b4fe60p-8", "max": "0x1.3645959f168f8p-7",
        },
    },
}
MIXED_GOLDEN = {
    1: {
        "total": "0x1.05b5db07d7c7fp-3",
        "times": [
            "0x0.0p+0", "0x1.ab8f4c5cfda0ap-5", "0x1.a990aa9e7d92cp-4",
            "0x1.05b5db07d7c7fp-3",
        ],
        "waits": [
            "0x0.0p+0", "0x0.0p+0",
        ],
        "iteration": {
            "count": 20, "p50": "0x1.a580c478301a4p-7",
            "p90": "0x1.bf43c6419e848p-7", "p99": "0x1.04d19f21a0604p-6",
            "mean": "0x1.a2946ecce992ap-7", "max": "0x1.0d6c98b278f15p-6",
        },
    },
    4: {
        "total": "0x1.3d567474e26c0p-3",
        "times": [
            "0x0.0p+0", "0x1.e3c0a35b5bdbdp-5", "0x1.f0a4d171b0783p-4",
            "0x1.3d567474e26c0p-3",
        ],
        "waits": [
            "0x0.0p+0", "0x0.0p+0",
        ],
        "iteration": {
            "count": 20, "p50": "0x1.ea4a0fa12b356p-7",
            "p90": "0x1.1cfe38473c18ep-6", "p99": "0x1.408019d39a396p-6",
            "mean": "0x1.f41dbc737b50ap-7", "max": "0x1.4764e2da11b60p-6",
        },
    },
}


def mixed_cluster(jitter=None) -> ClusterSpec:
    """worker-0 on InfiniBand, worker-1 on gigabit Ethernet, same device."""
    networks = (INFINIBAND_EDR, GIGABIT_ETHERNET)
    if jitter is not None:
        networks = tuple(dataclasses.replace(net, jitter=jitter) for net in networks)
    device = get_device_profile("p100")
    return ClusterSpec(workers=tuple(
        WorkerSpec(worker_id=f"worker-{i}", device=device, network=net)
        for i, net in enumerate(networks)
    ))


class TestFlatGoldenPin:
    """topology=None and "flat" reproduce the recorded flat-model times."""

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    @pytest.mark.parametrize("jitter", [0.0, 0.2])
    @pytest.mark.parametrize("topology", [None, "flat"])
    def test_bit_for_bit_virtual_time(self, tiny_flat_datasets, paradigm, jitter, topology):
        train, test = tiny_flat_datasets
        result = run(train, test, paradigm, jitter=jitter, topology=topology)
        assert hexed(result) == FLAT_GOLDEN[(paradigm, jitter)]

    def test_flat_topology_has_no_queueing(self, tiny_flat_datasets):
        train, test = tiny_flat_datasets
        result = run(train, test, "dssp", jitter=0.2, topology="flat")
        assert result.queue_trace == []

    def test_inline_flat_dict_equals_preset(self, tiny_flat_datasets):
        train, test = tiny_flat_datasets
        preset = run(train, test, "bsp", jitter=0.2, topology="flat")
        inline = run(train, test, "bsp", jitter=0.2, topology={"kind": "flat"})
        assert inline.total_time == preset.total_time
        assert inline.times.tolist() == preset.times.tolist()


class TestPerWorkerNetwork:
    """The flat topology prices each worker on its own network profile."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_mixed_cluster_golden(self, tiny_flat_datasets, shards):
        train, test = tiny_flat_datasets
        result = run(
            train, test, "dssp", jitter=None, topology=None,
            cluster=mixed_cluster(), num_shards=shards,
        )
        assert hexed(result) == MIXED_GOLDEN[shards]

    def test_flat_preset_equals_none(self, tiny_flat_datasets):
        train, test = tiny_flat_datasets
        runs = [
            run(train, test, "dssp", jitter=None, topology=topology, cluster=mixed_cluster())
            for topology in (None, "flat")
        ]
        assert hexed(runs[1]) == hexed(runs[0])
        assert runs[1].accuracies.tolist() == runs[0].accuracies.tolist()

    def test_each_link_has_its_own_network(self, tiny_flat_datasets):
        # Jitter-free timing: a worker's first push lands after compute
        # plus one push and one pull over its own link.
        train, test = tiny_flat_datasets
        cluster = mixed_cluster(jitter=0.0)
        result = run(
            train, test, "asp", jitter=None, topology="flat", cluster=cluster,
            timing_jitter=False,
        )
        model = builder_for(train)(np.random.default_rng(0))
        cost = estimate_model_cost(model, train.sample_shape)
        arrivals = {}
        for spec in cluster.workers:
            net = spec.network
            leg = net.latency + cost.parameter_bytes / net.bandwidth_bytes_per_second
            compute = spec.device.compute_time(cost.iteration_flops(16))
            arrivals[spec.worker_id] = result.push_times(spec.worker_id)[0]
            assert arrivals[spec.worker_id] == pytest.approx(compute + 2 * leg, rel=1e-12)
        assert arrivals["worker-1"] > arrivals["worker-0"]


class TestRackTopologyBehaviour:
    def test_shared_uplink_produces_queueing(self, tiny_flat_datasets):
        train, test = tiny_flat_datasets
        result = run(train, test, "bsp", jitter=0.2, topology="two-rack")
        assert result.queue_trace, "shared uplinks must record FIFO waits"
        for record in result.queue_trace:
            assert record["link"].startswith("uplink-rack")
            assert record["start"] >= record["arrival"]
            assert record["wait"] == record["start"] - record["arrival"]
        assert any(record["wait"] > 0 for record in result.queue_trace)

    def test_rack_topology_slower_than_flat(self, tiny_flat_datasets):
        # The two-rack preset's contended 0.6 GB/s uplink must cost more
        # virtual time than the parity network's private links.
        train, test = tiny_flat_datasets
        flat = run(train, test, "bsp", jitter=0.0, topology=None)
        racks = run(train, test, "bsp", jitter=0.0, topology="two-rack")
        assert racks.total_time > flat.total_time

    def test_iteration_summary_matches_numpy(self, tiny_flat_datasets):
        train, test = tiny_flat_datasets
        result = run(train, test, "dssp", jitter=0.2, topology="two-rack")
        pooled = []
        for worker_id in result.iterations_per_worker:
            times = result.push_times(worker_id)
            if times.size:
                pooled.extend(np.diff(times, prepend=0.0).tolist())
        summary = result.iteration_time_percentiles
        assert summary.count == len(pooled)
        assert summary.p50 == pytest.approx(float(np.percentile(pooled, 50)))
        assert summary.p90 == pytest.approx(float(np.percentile(pooled, 90)))
        assert summary.p99 == pytest.approx(float(np.percentile(pooled, 99)))


class TestTailHeavyDeterminism:
    """Same seed, same history — at sweep scale (256 workers)."""

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(640, 12))
        labels = rng.integers(0, 4, size=640)
        train = ArrayDataset(inputs, labels)
        test = ArrayDataset(inputs[:128], labels[:128])
        return train, test

    def big_run(self, problem, seed=0):
        train, test = problem
        return run(
            train,
            test,
            "dssp",
            jitter=0.2,
            topology="tail-heavy",
            num_workers=256,
            seed=seed,
            epochs=8.0,
        )

    def test_replays_identically(self, problem):
        first = self.big_run(problem)
        second = self.big_run(problem)
        assert first.queue_trace == second.queue_trace
        assert first.events == second.events
        assert (
            first.iteration_time_percentiles.to_dict()
            == second.iteration_time_percentiles.to_dict()
        )
        assert first.total_time == second.total_time
        assert first.times.tolist() == second.times.tolist()
        assert first.accuracies.tolist() == second.accuracies.tolist()
        assert first.wait_time_per_worker == second.wait_time_per_worker

    def test_different_seed_diverges(self, problem):
        first = self.big_run(problem, seed=0)
        other = self.big_run(problem, seed=1)
        assert first.queue_trace != other.queue_trace
        assert first.total_time != other.total_time

    def test_all_workers_route_through_two_uplinks(self, problem):
        result = self.big_run(problem)
        links = {record["link"] for record in result.queue_trace}
        assert links == {"uplink-rack0", "uplink-rack1"}
        tags = {record["tag"].split(":")[1] for record in result.queue_trace}
        assert tags == {"push", "pull"}
