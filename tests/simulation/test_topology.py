"""Unit tests for the topology-aware network model and ring allreduce."""

import numpy as np
import pytest

from repro.metrics.throughput import (
    EMPTY_PERCENTILES,
    percentile,
    percentile_summary,
)
from repro.simulation.network import NetworkModel
from repro.simulation.topology import (
    TOPOLOGY_PRESETS,
    Link,
    Topology,
    available_jitters,
    available_topology_presets,
    build_topology,
    canonical_topology_spec,
    make_jitter,
    parse_jitter_spec,
    rack_topology,
    ring_allreduce,
    ring_allreduce_wire_bytes,
    single_link_topology,
    validate_comm_pattern,
)


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
        assert available_jitters() == ("exponential", "lognormal", "none", "pareto")

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

    def test_same_rack_route_skips_uplinks(self):
        topo = two_rack_fixture()
        route = topo.worker_to_worker_path("a", "b")
        assert [link.name for link in route] == ["leaf-a", "leaf-b"]

    def test_cross_rack_route_traverses_both_uplinks(self):
        topo = two_rack_fixture()
        route = topo.worker_to_worker_path("a", "c")
        assert [link.name for link in route] == [
            "leaf-a",
            "uplink-rack0",
            "uplink-rack1",
            "leaf-c",
        ]

    def test_self_route_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            two_rack_fixture().worker_to_worker_path("a", "a")

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
        for name in available_topology_presets():
            canonical = canonical_topology_spec(name)
            assert canonical["kind"] in ("flat", "racks")
        assert set(available_topology_presets()) == set(TOPOLOGY_PRESETS)

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

    def test_comm_pattern_validation(self):
        assert validate_comm_pattern("PS") == "ps"
        assert validate_comm_pattern(" ring_allreduce ") == "ring_allreduce"
        with pytest.raises(ValueError, match="ring_allreduce"):
            validate_comm_pattern("tree")


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


class TestRingAllreduce:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
    def test_wire_bytes_formula(self, n):
        payload = 1_000_000.0
        expected = 2.0 * (n - 1) / n * payload
        assert ring_allreduce_wire_bytes(payload, n) == expected
        # Strictly less than the PS pattern's dense push+pull (2x payload).
        assert ring_allreduce_wire_bytes(payload, n) < 2.0 * payload

    def test_wire_bytes_rejects_degenerate_rings(self):
        with pytest.raises(ValueError):
            ring_allreduce_wire_bytes(100.0, 1)
        with pytest.raises(ValueError):
            ring_allreduce_wire_bytes(-1.0, 4)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("size", [1, 3, 17, 64])
    def test_matches_mean_numerically(self, rng, n, size):
        if size < n:
            pytest.skip("fewer elements than workers")
        arrays = [rng.normal(size=size) for _ in range(n)]
        out = ring_allreduce(arrays)
        np.testing.assert_allclose(out, np.mean(arrays, axis=0), rtol=1e-12)

    def test_two_workers_bit_for_bit_vs_sequential_sum(self, rng):
        arrays = [rng.normal(size=33) for _ in range(2)]
        out = ring_allreduce(arrays, average=False)
        reference = arrays[0].astype(np.float64) + arrays[1].astype(np.float64)
        assert out.tolist() == reference.tolist()

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_identical_pushes_bit_for_bit_vs_ps_sum(self, rng, n):
        # On identical inputs every fold order produces the same bits, so
        # the ring must agree exactly with the server's sequential
        # sum-then-divide — the property the simulated ring pattern relies
        # on to reuse the PS apply path unchanged.
        push = rng.normal(size=50)
        arrays = [push.copy() for _ in range(n)]
        ring = ring_allreduce(arrays, average=True)
        sequential = arrays[0].astype(np.float64)
        for array in arrays[1:]:
            sequential = sequential + array
        sequential = sequential / n
        assert ring.tolist() == sequential.tolist()

    def test_shape_preserved_and_mismatch_rejected(self, rng):
        arrays = [rng.normal(size=(4, 5)) for _ in range(3)]
        assert ring_allreduce(arrays).shape == (4, 5)
        with pytest.raises(ValueError, match="shape"):
            ring_allreduce([np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError, match="empty"):
            ring_allreduce([])
