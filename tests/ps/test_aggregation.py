"""Tests for the server-side aggregators (repro.ps.aggregation).

Covers the aggregator registry and spec parsing, the combination math of
every aggregator, and the buffered window path through the parameter
server: staging, the full-window flush, the end-of-run tail flush, the
dead-worker discard, and the bit-for-bit equivalence of the ``mean``
fast path with an aggregator-less server.
"""

import numpy as np
import pytest

from repro.core.factory import make_policy
from repro.optim.sgd import SGD
from repro.ps.aggregation import (
    AGGREGATORS,
    ClipAggregator,
    GeometricMedianAggregator,
    MeanAggregator,
    MedianAggregator,
    TrimmedMeanAggregator,
    make_aggregator,
    parse_aggregation_spec,
    register_aggregator,
    validate_aggregation_spec,
)
from repro.ps.session import ServerEvent, ServerSession
from repro.ps.sharding import ShardedKeyValueStore


def _combine(aggregator, rows):
    stacked = np.asarray(rows, dtype=np.float64)
    return aggregator.combine(stacked, np.empty(stacked.shape[1]))


# ----------------------------------------------------------------------
# Registry and spec parsing
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_aggregators_registered(self):
        assert tuple(sorted(AGGREGATORS)) == (
            "clip",
            "geomed",
            "mean",
            "median",
            "trimmed_mean",
        )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate aggregator"):
            register_aggregator(MeanAggregator)

    def test_parse_bare_name(self):
        assert parse_aggregation_spec("mean") == ("mean", {})

    def test_parse_positional_value(self):
        assert parse_aggregation_spec("trimmed_mean:1") == ("trimmed_mean", {"k": 1.0})
        assert parse_aggregation_spec("clip:0.5") == ("clip", {"tau": 0.5})

    def test_parse_keyword_params(self):
        name, params = parse_aggregation_spec("geomed:max_iters=4,tol=0.001")
        assert name == "geomed"
        assert params == {"max_iters": 4.0, "tol": 0.001}

    def test_unknown_aggregator_lists_available(self):
        with pytest.raises(ValueError, match="trimmed_mean"):
            parse_aggregation_spec("krum")

    def test_positional_on_positionless_aggregator_rejected(self):
        with pytest.raises(ValueError, match="no positional"):
            parse_aggregation_spec("median:3")

    def test_non_numeric_parameter_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_aggregation_spec("trimmed_mean:k=lots")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ValueError, match="duplicate aggregator parameter"):
            parse_aggregation_spec("trimmed_mean:1,k=2")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            make_aggregator("clip:sigma=1")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_aggregation_spec("")

    def test_make_aggregator_builds_configured_instance(self):
        aggregator = make_aggregator("trimmed_mean:2")
        assert isinstance(aggregator, TrimmedMeanAggregator)
        assert aggregator.k == 2

    def test_out_of_range_parameters_rejected(self):
        with pytest.raises(ValueError, match="trim depth"):
            make_aggregator("trimmed_mean:-1")
        with pytest.raises(ValueError, match="trim depth"):
            make_aggregator("trimmed_mean:0.5")
        with pytest.raises(ValueError, match="tau"):
            make_aggregator("clip:0")
        with pytest.raises(ValueError, match="max_iters"):
            make_aggregator("geomed:0")

    def test_only_mean_is_unbuffered(self):
        for name in AGGREGATORS:
            aggregator = make_aggregator(name)
            assert aggregator.buffered == (name != "mean")


# ----------------------------------------------------------------------
# Combination math
# ----------------------------------------------------------------------
class TestMean:
    def test_is_the_arithmetic_mean(self):
        out = _combine(MeanAggregator(), [[1.0, 4.0], [3.0, 0.0]])
        np.testing.assert_array_equal(out, [2.0, 2.0])


class TestTrimmedMean:
    def test_drops_the_extremes_per_coordinate(self):
        rows = [[0.0, 100.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0], [-50.0, 1.0]]
        out = _combine(TrimmedMeanAggregator(k=1), rows)
        # Column 0 trims -50 and 3, column 1 trims 1 and 100.
        np.testing.assert_array_equal(out, [1.0, 3.0])

    def test_tolerates_one_byzantine_row(self):
        honest = np.ones((4, 3))
        rows = np.vstack([honest, [[1e9, -1e9, 1e9]]])
        out = _combine(TrimmedMeanAggregator(k=1), rows)
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0])

    def test_trim_depth_clamped_for_small_windows(self):
        # Two survivors with k=3: the clamp degenerates to the plain mean.
        out = _combine(TrimmedMeanAggregator(k=3), [[0.0], [4.0]])
        np.testing.assert_array_equal(out, [2.0])

    def test_k_zero_is_the_mean(self):
        rows = np.random.default_rng(0).normal(size=(5, 7))
        np.testing.assert_array_equal(
            _combine(TrimmedMeanAggregator(k=0), rows),
            _combine(MeanAggregator(), rows),
        )


class TestMedian:
    def test_coordinate_wise_median(self):
        rows = [[1.0, 9.0], [2.0, -7.0], [300.0, 0.0]]
        np.testing.assert_array_equal(_combine(MedianAggregator(), rows), [2.0, 0.0])


class TestGeometricMedian:
    def test_resists_one_far_outlier(self):
        rng = np.random.default_rng(1)
        honest = rng.normal(size=(6, 8)) * 0.01 + 1.0
        rows = np.vstack([honest, np.full((1, 8), 1e6)])
        out = _combine(GeometricMedianAggregator(max_iters=32), rows)
        # The mean is dragged ~1e5 away; the geometric median stays put.
        assert np.all(np.abs(out - 1.0) < 1.0)

    def test_two_points_reduce_to_the_mean(self):
        rows = [[0.0, 0.0], [2.0, 4.0]]
        np.testing.assert_array_equal(
            _combine(GeometricMedianAggregator(), rows), [1.0, 2.0]
        )

    def test_does_not_mutate_the_stacked_input(self):
        stacked = np.random.default_rng(2).normal(size=(5, 4))
        before = stacked.copy()
        GeometricMedianAggregator().combine(stacked, np.empty(4))
        np.testing.assert_array_equal(stacked, before)


class TestClip:
    def test_oversized_gradients_rescaled_to_tau(self):
        big = np.array([30.0, 40.0])  # norm 50
        out = _combine(ClipAggregator(tau=5.0), [big])
        np.testing.assert_allclose(out, [3.0, 4.0])  # norm 5, direction kept

    def test_small_gradients_pass_through_as_mean(self):
        rows = [[0.1, 0.2], [0.3, 0.0]]
        np.testing.assert_allclose(_combine(ClipAggregator(tau=10.0), rows), [0.2, 0.1])

    def test_bounds_a_noise_blowup(self):
        honest = np.ones((4, 2)) * 0.1
        rows = np.vstack([honest, [[1e8, -1e8]]])
        out = _combine(ClipAggregator(tau=1.0), rows)
        assert np.all(np.abs(out) < 1.0)


# ----------------------------------------------------------------------
# The buffered window path through the parameter server
# ----------------------------------------------------------------------
def _make_server(aggregator=None, num_workers=3, num_shards=2):
    rng = np.random.default_rng(0)
    weights = {
        "layer1.weight": rng.normal(size=(6, 4)),
        "layer1.bias": rng.normal(size=4),
        "layer2.weight": rng.normal(size=(4, 3)),
    }
    store = ShardedKeyValueStore(weights, num_shards=num_shards)
    session = ServerSession(
        store, SGD(0.1), make_policy("asp"), aggregator=aggregator
    )
    for index in range(num_workers):
        session.dispatch(ServerEvent(f"worker-{index}", "join"))
    return session, store


def _flat_push(session, worker_id, seed, base_version=0, num_flat=None):
    """Push random packed gradients for every shard (the first ``num_flat``)."""
    store = session.store
    rng = np.random.default_rng(seed)
    flat = {
        shard: rng.normal(size=sum(segment.size for segment in layout))
        for shard, layout in store.flat_layouts
    }
    named = {name: np.zeros_like(value) for name, value in store.weights_snapshot().items()}
    return session.dispatch(
        ServerEvent(
            worker_id,
            "push",
            {"base_version": base_version, "timestamp": 0.0},
            {"named": named, "flat": dict(list(flat.items())[:num_flat])},
        )
    )


class TestBufferedWindow:
    def test_pushes_stage_until_the_window_fills(self):
        session, store = _make_server(make_aggregator("trimmed_mean:1"))
        before = store.weights_snapshot()
        _flat_push(session, "worker-0", seed=1)
        _flat_push(session, "worker-1", seed=2)
        for name, value in store.weights_snapshot().items():
            np.testing.assert_array_equal(value, before[name])
        assert store.version == 0

        _flat_push(session, "worker-2", seed=3)
        assert store.version == 1
        assert any(
            not np.array_equal(before[name], value)
            for name, value in store.weights_snapshot().items()
        )
        assert session.statistics()["aggregation"] == {
            "name": "trimmed_mean",
            "buffered": True,
            "windows_applied": 1,
        }

    def test_lapping_worker_flushes_the_partial_window(self):
        session, store = _make_server(make_aggregator("median"))
        _flat_push(session, "worker-0", seed=1)
        # The same worker pushing again before the window fills must not
        # overwrite its first contribution: the partial window flushes.
        _flat_push(session, "worker-0", seed=2)
        assert store.version == 1

    def test_flush_staged_applies_the_tail(self):
        session, store = _make_server(make_aggregator("median"))
        _flat_push(session, "worker-0", seed=1)
        assert store.version == 0
        session.finish()
        assert store.version == 1
        session.finish()  # idempotent on an empty window
        assert store.version == 1

    def test_discard_staged_drops_a_dead_workers_push(self):
        session, store = _make_server(make_aggregator("median"))
        _flat_push(session, "worker-0", seed=1)
        session.dispatch(ServerEvent("worker-0", "departure"))
        session.dispatch(ServerEvent("worker-0", "departure"))  # nothing left
        session.finish()
        assert store.version == 0  # the discarded push never landed

    def test_deregistration_shrinks_the_window_target(self):
        session, store = _make_server(make_aggregator("median"))
        _flat_push(session, "worker-0", seed=1)
        _flat_push(session, "worker-1", seed=2)
        # worker-2 dies before contributing: the staged pair now covers
        # every remaining worker and must flush.
        session.dispatch(ServerEvent("worker-2", "departure"))
        assert store.version == 1

    def test_buffered_push_requires_full_flat_gradients(self):
        session, store = _make_server(make_aggregator("median"))
        with pytest.raises(ValueError, match="full"):
            _flat_push(session, "worker-0", seed=1, num_flat=1)

    def test_window_is_schedule_order_independent(self):
        # Same three pushes, different arrival orders: identical weights
        # (rows stack in sorted worker-id order before combining).
        results = []
        for order in ([0, 1, 2], [2, 0, 1]):
            session, store = _make_server(make_aggregator("trimmed_mean:1"))
            for index in order:
                _flat_push(session, f"worker-{index}", seed=index)
            results.append(store.weights_snapshot())
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])


class TestMeanFastPath:
    def test_mean_aggregator_is_bit_for_bit_the_default_path(self):
        plain, plain_store = _make_server(aggregator=None)
        mean, mean_store = _make_server(make_aggregator("mean"))
        for step, worker in enumerate(["worker-0", "worker-1", "worker-2"] * 2):
            _flat_push(plain, worker, seed=step, base_version=plain_store.version)
            _flat_push(mean, worker, seed=step, base_version=mean_store.version)
        assert plain_store.version == mean_store.version
        for name, value in plain_store.weights_snapshot().items():
            np.testing.assert_array_equal(value, mean_store.weights_snapshot()[name])

    def test_mean_server_reports_zero_windows(self):
        session, store = _make_server(make_aggregator("mean"))
        _flat_push(session, "worker-0", seed=1)
        stats = session.statistics()["aggregation"]
        assert stats == {"name": "mean", "buffered": False, "windows_applied": 0}
        assert store.version == 1  # applied immediately, never staged
