"""Unit tests for the topology-aware network model."""

import numpy as np
import pytest

from repro.metrics.throughput import (
    EMPTY_PERCENTILES,
    percentile,
    percentile_summary,
)
from repro.simulation.cluster import WorkerSpec
from repro.simulation.network import NetworkModel
from repro.simulation.profiles import DeviceProfile
from repro.simulation.topology import (
    JITTERS,
    TOPOLOGY_PRESETS,
    Link,
    Topology,
    TopologyTimeModel,
    build_topology,
    canonical_topology_spec,
    make_jitter,
    parse_jitter_spec,
    rack_topology,
    single_link_topology,
)
from repro.simulation.workload import ModelCost


class TestJitterSpecs:
    def test_parse_known_specs(self):
        assert parse_jitter_spec("none") == ("none", None)
        assert parse_jitter_spec("lognormal:0.2") == ("lognormal", 0.2)
        assert parse_jitter_spec("exponential:0.5") == ("exponential", 0.5)
        assert parse_jitter_spec("pareto:2.5") == ("pareto", 2.5)

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "gaussian:0.1", "lognormal", "lognormal:abc", "none:0.1",
         "lognormal:-0.5"],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_jitter_spec(bad)

    def test_error_names_available_jitters(self):
        with pytest.raises(ValueError, match="exponential"):
            parse_jitter_spec("nope:1.0")
        assert tuple(sorted(JITTERS)) == ("exponential", "lognormal", "none", "pareto")

    def test_zero_parameter_collapses_to_no_jitter(self):
        # A jitter-free link draws nothing, so it cannot shift the timing
        # stream every other link draws from.
        assert make_jitter("none") is None
        assert make_jitter("lognormal:0") is None
        assert make_jitter("exponential:0.0") is None

    def test_draws_match_flat_model_arithmetic(self):
        model = make_jitter("lognormal:0.3")
        a = model.draw(np.random.default_rng(5))
        b = float(np.exp(np.random.default_rng(5).normal(0.0, 0.3)))
        assert a == b

    def test_tail_jitters_are_at_least_one(self, rng):
        for spec in ("exponential:1.0", "pareto:1.5"):
            model = make_jitter(spec)
            draws = [model.draw(rng) for _ in range(200)]
            assert min(draws) >= 1.0


class TestLink:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"latency": -0.1},
            {"bandwidth_bytes_per_second": 0.0},
            {"bandwidth_bytes_per_second": -5.0},
            {"jitter": "bogus:1"},
        ],
    )
    def test_invalid_links_rejected(self, kwargs):
        defaults = dict(name="l", latency=0.1, bandwidth_bytes_per_second=10.0)
        with pytest.raises(ValueError):
            Link(**{**defaults, **kwargs})


def two_rack_fixture() -> Topology:
    return rack_topology(
        ["a", "b", "c", "d"],
        num_racks=2,
        leaf={"latency": 0.1, "bandwidth": 100.0},
        uplink={"latency": 1.0, "bandwidth": 10.0, "shared": True},
    )


class TestTopologyGraph:
    def test_single_link_paths(self):
        network = NetworkModel(name="test", latency=1e-3, bandwidth_bytes_per_second=1e9, jitter=0.0)
        topo = single_link_topology({"w0": network, "w1": network})
        assert topo.worker_ids == ["w0", "w1"]
        (link,) = topo.worker_path("w0")
        assert link.name == "link-w0"
        assert not link.shared

    def test_unknown_worker_raises(self):
        network = NetworkModel(name="test", latency=1e-3, bandwidth_bytes_per_second=1e9, jitter=0.0)
        topo = single_link_topology({"w0": network})
        with pytest.raises(KeyError, match="w9"):
            topo.worker_path("w9")

    def test_duplicate_link_names_rejected(self):
        link = Link(name="l", latency=0.1, bandwidth_bytes_per_second=10.0)
        with pytest.raises(ValueError, match="duplicate"):
            Topology("t", [link, link], {"w": ("l",)})

    def test_path_referencing_unknown_link_rejected(self):
        link = Link(name="l", latency=0.1, bandwidth_bytes_per_second=10.0)
        with pytest.raises(ValueError, match="unknown link"):
            Topology("t", [link], {"w": ("l", "missing")})

    def test_rack_assignment_is_contiguous(self):
        topo = two_rack_fixture()
        assert [link.name for link in topo.worker_path("a")] == [
            "leaf-a",
            "uplink-rack0",
        ]
        assert [link.name for link in topo.worker_path("d")] == [
            "leaf-d",
            "uplink-rack1",
        ]

    def test_describe_round_trips_link_settings(self):
        described = two_rack_fixture().describe()
        assert described["paths"]["c"] == ["leaf-c", "uplink-rack1"]
        uplinks = [l for l in described["links"] if l["shared"]]
        assert len(uplinks) == 2


class TestFifoQueueing:
    def test_private_links_never_queue(self):
        network = NetworkModel(name="test", latency=0.5, bandwidth_bytes_per_second=1e9, jitter=0.0)
        topo = single_link_topology({"w0": network})
        state = topo.new_state()
        path = topo.worker_path("w0")
        first = state.transfer(path, 1000, start=0.0)
        second = state.transfer(path, 1000, start=0.0)
        assert first == second
        assert state.queue_trace == []

    def test_shared_link_serializes_fifo(self):
        topo = two_rack_fixture()
        state = topo.new_state()
        path = topo.worker_path("a")  # leaf 0.1+10/100, uplink 1.0+10/10
        d1 = state.transfer(path, 10, start=0.0)
        d2 = state.transfer(path, 10, start=0.0)
        # Second transfer arrives at the uplink while the first occupies it.
        assert d1 == pytest.approx(0.2 + 2.0)
        assert d2 == pytest.approx(d1 + 2.0)
        (first, second) = state.queue_trace
        assert first["wait"] == 0.0
        assert second["wait"] == pytest.approx(2.0)
        assert second["start"] == pytest.approx(first["start"] + 2.0)

    def test_idle_link_does_not_delay_late_arrivals(self):
        topo = two_rack_fixture()
        state = topo.new_state()
        path = topo.worker_path("a")
        state.transfer(path, 10, start=0.0)
        late = state.transfer(path, 10, start=100.0)
        assert late == pytest.approx(0.2 + 2.0)
        assert state.queue_trace[-1]["wait"] == 0.0

    def test_zero_byte_transfer_pays_latency_only(self):
        topo = two_rack_fixture()
        state = topo.new_state()
        assert state.transfer(topo.worker_path("a"), 0) == pytest.approx(1.1)

    def test_negative_bytes_and_empty_path_rejected(self):
        state = two_rack_fixture().new_state()
        with pytest.raises(ValueError, match="nbytes"):
            state.transfer(two_rack_fixture().worker_path("a"), -1)
        with pytest.raises(ValueError, match="path"):
            state.transfer((), 10)

    def test_queue_trace_is_deterministic(self):
        def trace(seed):
            topo = rack_topology(
                [f"w{i}" for i in range(8)],
                num_racks=2,
                leaf={"latency": 0.1, "bandwidth": 100.0, "jitter": "exponential:0.5"},
                uplink={"latency": 1.0, "bandwidth": 10.0, "jitter": "exponential:1.0"},
            )
            state = topo.new_state()
            rng = np.random.default_rng(seed)
            for index, worker in enumerate(topo.worker_ids):
                state.transfer(
                    topo.worker_path(worker), 64, start=0.1 * index, rng=rng
                )
            return state.queue_trace

        assert trace(9) == trace(9)
        assert trace(9) != trace(10)


class TestTopologySpecs:
    def test_presets_resolve(self):
        for name in TOPOLOGY_PRESETS:
            canonical = canonical_topology_spec(name)
            assert canonical["kind"] in ("flat", "racks")

    @pytest.mark.parametrize(
        "bad",
        [
            "warehouse",
            42,
            {"kind": "mesh"},
            {"kind": "racks", "num_racks": 0, "leaf": {}, "uplink": {}},
            {"kind": "racks", "num_racks": 2, "leaf": {"latency": 1}},
            {
                "kind": "racks",
                "num_racks": 2,
                "leaf": {"latency": 0.1, "bandwidth": 1.0, "color": "red"},
                "uplink": {"latency": 0.1, "bandwidth": 1.0},
            },
            {"kind": "flat", "num_racks": 2},
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            canonical_topology_spec(bad)

    def test_build_flat_preset_uses_network_profile(self):
        network = NetworkModel(name="test", latency=2e-3, bandwidth_bytes_per_second=1e9, jitter=0.15)
        slow = NetworkModel(name="slow", latency=5e-3, bandwidth_bytes_per_second=1e8, jitter=0.0)
        topo = build_topology("flat", {"w0": network, "w1": slow})
        link = topo.worker_path("w0")[0]
        assert link.latency == network.latency
        assert link.jitter == f"lognormal:{network.jitter!r}"
        link = topo.worker_path("w1")[0]
        assert (link.latency, link.bandwidth_bytes_per_second) == (5e-3, 1e8)
        assert link.jitter == "none"

    def test_build_accepts_prebuilt_topology(self):
        topo = two_rack_fixture()
        network = NetworkModel(name="test", latency=1e-3, bandwidth_bytes_per_second=1e9, jitter=0.0)
        assert build_topology(topo, {"a": network, "b": network}) is topo
        with pytest.raises(ValueError, match="no path"):
            build_topology(topo, {"a": network, "missing": network})


#: A jitter-free device doing one FLOP per second: compute time is the FLOPs.
UNIT_DEVICE = DeviceProfile(
    name="unit", peak_flops=1.0, efficiency=1.0, per_iteration_overhead=0.0, jitter=0.0
)
#: Half a second of compute per one-sample batch, a 20-byte payload: on the
#: two-rack fixture one leg is leaf 0.1 + 20/100 plus uplink 1.0 + 20/10 = 3.3.
UNIT_COST = ModelCost(flops_per_sample=0.5, num_parameters=5, parameter_bytes=20)
LEG = 3.3


def unit_worker(worker_id: str) -> WorkerSpec:
    network = NetworkModel(name="test", latency=1e-3, bandwidth_bytes_per_second=1e9, jitter=0.0)
    return WorkerSpec(worker_id=worker_id, device=UNIT_DEVICE, network=network)


def rack_time_model(**kwargs) -> TopologyTimeModel:
    return TopologyTimeModel(UNIT_COST, batch_size=1, topology=two_rack_fixture(), **kwargs)


class TestPsTimeModel:
    """An iteration is compute, then a push and a pull on the worker's path."""

    @pytest.mark.parametrize("worker_id", ["a", "b", "c", "d"])
    def test_an_iteration_is_a_push_then_a_pull_up_the_worker_path(self, worker_id):
        model = rack_time_model()
        spec = unit_worker(worker_id)
        assert model.compute_time(spec) == 0.5
        assert model.iteration_time(spec) == pytest.approx(0.5 + 2 * LEG)
        uplink = "uplink-rack0" if worker_id in "ab" else "uplink-rack1"
        push, pull = model.state.queue_trace
        assert (push["link"], push["tag"], push["nbytes"]) == (uplink, f"{worker_id}:push", 20.0)
        assert (pull["link"], pull["tag"], pull["nbytes"]) == (uplink, f"{worker_id}:pull", 20.0)
        # Each leg reaches the uplink after the leaf; the pull follows the push.
        assert push["arrival"] == pytest.approx(0.5 + 0.3)
        assert pull["arrival"] == pytest.approx(0.5 + LEG + 0.3)
        assert push["wait"] == pull["wait"] == 0.0

    @pytest.mark.parametrize(
        "first,second,same_rack",
        [("a", "b", True), ("c", "d", True), ("a", "c", False), ("b", "d", False)],
        ids=["rack0", "rack1", "a-c", "b-d"],
    )
    def test_workers_of_one_rack_queue_on_its_uplink(self, first, second, same_rack):
        model = rack_time_model()
        alone = model.communication_time(unit_worker(first))
        behind = model.communication_time(unit_worker(second))
        waits = [e["wait"] for e in model.state.queue_trace if e["tag"].startswith(second)]
        assert alone == pytest.approx(2 * LEG)
        if same_rack:
            # Transfers are booked in call order: the second push reaches the
            # uplink at 0.8 s but waits until the first worker's pull has left
            # it at 7.1 s; its own pull then finds the uplink free.
            assert behind == pytest.approx(alone + 6.3)
            assert waits == pytest.approx([6.3, 0.0])
        else:
            assert behind == alone
            assert waits == [0.0, 0.0]

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 1.0])
    def test_a_codec_shrinks_the_push_and_not_the_pull(self, fraction):
        model = rack_time_model(push_wire_fraction=fraction)
        push = 0.1 + 20 * fraction / 100 + 1.0 + 20 * fraction / 10
        assert model.communication_time(unit_worker("a")) == pytest.approx(push + LEG)
        assert [e["nbytes"] for e in model.state.queue_trace] == [20 * fraction, 20.0]

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_a_push_fraction_outside_the_unit_interval_is_refused(self, fraction):
        with pytest.raises(ValueError, match="push_wire_fraction"):
            rack_time_model(push_wire_fraction=fraction)

    @pytest.mark.parametrize("scale", [0.5, 4.0])
    def test_time_scale_stretches_both_legs_and_not_the_queue(self, scale):
        plain, scaled = rack_time_model(), rack_time_model(time_scale=scale)
        # The second iteration starts at 1 s and queues behind the first's pull.
        for now in (0.0, 1.0):
            assert scaled.iteration_time(unit_worker("a"), now=now * scale) == pytest.approx(
                scale * plain.iteration_time(unit_worker("a"), now=now)
            )
        assert scaled.state.queue_trace[2]["wait"] > 0.0
        assert scaled.state.queue_trace == plain.state.queue_trace

    def test_the_push_joins_the_queue_after_compute(self):
        def push_wait(now):
            model = rack_time_model()
            # Holds uplink-rack0 until 0.3 + 3.0 s.
            model.state.transfer(model.topology.worker_path("b"), 20, start=0.0)
            model.communication_time(unit_worker("a"), now=now)
            return model.state.queue_trace[1]["wait"]

        # Compute ends at now + 0.5 and the leaf takes 0.3 more.
        assert push_wait(0.0) == pytest.approx(LEG - 0.8)
        assert push_wait(LEG - 0.8) == pytest.approx(0.0)

    @pytest.mark.parametrize("fractions", [(1.0,), (0.25, 0.75)], ids=["one-shard", "two-shards"])
    def test_jitter_draws_go_compute_then_pushes_then_pulls(self, fractions):
        network = NetworkModel(name="jittery", latency=0.5, bandwidth_bytes_per_second=10.0, jitter=0.2)
        device = DeviceProfile(
            name="noisy", peak_flops=1.0, efficiency=1.0, per_iteration_overhead=0.0, jitter=0.3
        )
        spec = WorkerSpec(worker_id="w", device=device, network=network)
        topology = build_topology("flat", {"w": network})
        model = TopologyTimeModel(UNIT_COST, batch_size=1, topology=topology, shard_fractions=fractions)
        shard_bytes = [20.0] if len(fractions) == 1 else [int(20 * f) for f in fractions]
        draws = np.random.default_rng(3)
        compute = 0.5 * float(np.exp(draws.normal(0.0, 0.3)))
        push = max((0.5 + b / 10.0) * float(np.exp(draws.normal(0.0, 0.2))) for b in shard_bytes)
        pull = max((0.5 + b / 10.0) * float(np.exp(draws.normal(0.0, 0.2))) for b in shard_bytes)
        iteration = model.iteration_time(spec, rng=np.random.default_rng(3))
        assert iteration == pytest.approx(compute + push + pull, rel=1e-12)

    def test_a_worker_off_the_topology_is_named(self):
        with pytest.raises(KeyError, match="no worker 'e'"):
            rack_time_model().iteration_time(unit_worker("e"))


class TestPercentiles:
    def test_matches_numpy_linear_interpolation(self, rng):
        samples = rng.exponential(1.0, size=257).tolist()
        for q in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q)), rel=0, abs=1e-12
            )

    def test_single_sample_and_bounds(self):
        assert percentile([3.5], 50.0) == 3.5
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_summary_fields(self, rng):
        samples = rng.normal(10.0, 2.0, size=100).tolist()
        summary = percentile_summary(samples)
        assert summary.count == 100
        assert summary.p50 == pytest.approx(float(np.percentile(samples, 50)))
        assert summary.p99 == pytest.approx(float(np.percentile(samples, 99)))
        assert summary.max == max(samples)
        assert summary.mean == pytest.approx(float(np.mean(samples)))

    def test_empty_summary_is_schema_stable(self):
        summary = percentile_summary([])
        assert summary == EMPTY_PERCENTILES
        assert summary.to_dict() == {
            "count": 0,
            "p50": 0.0,
            "p90": 0.0,
            "p99": 0.0,
            "mean": 0.0,
            "max": 0.0,
        }
