"""Tests for the SGD optimizer."""

import numpy as np
import pytest

from repro.optim.sgd import SGD
from repro.ps.compression import EncodedShard, decode_shard, make_codec
from repro.ps.flatbuffer import FlatShard


def make_weights():
    return {"w": np.array([1.0, 2.0]), "b": np.array([0.5])}


class TestPlainSgd:
    def test_single_step(self):
        weights = make_weights()
        SGD(learning_rate=0.1).step(weights, {"w": np.array([1.0, 1.0])})
        assert np.allclose(weights["w"], [0.9, 1.9])
        assert np.allclose(weights["b"], [0.5])

    def test_scale_factor_applied(self):
        weights = make_weights()
        SGD(learning_rate=0.1).step(weights, {"w": np.array([1.0, 1.0])}, scale=0.5)
        assert np.allclose(weights["w"], [0.95, 1.95])

    def test_weight_decay_adds_l2_pull(self):
        weights = {"w": np.array([10.0])}
        SGD(learning_rate=0.1, weight_decay=0.1).step(weights, {"w": np.array([0.0])})
        assert np.allclose(weights["w"], [10.0 - 0.1 * 1.0])

    def test_momentum_accumulates_velocity(self):
        weights = {"w": np.array([0.0])}
        optimizer = SGD(learning_rate=1.0, momentum=0.9)
        optimizer.step(weights, {"w": np.array([1.0])})
        assert np.allclose(weights["w"], [-1.0])
        optimizer.step(weights, {"w": np.array([1.0])})
        # velocity = 0.9 * 1 + 1 = 1.9
        assert np.allclose(weights["w"], [-1.0 - 1.9])

    def test_nesterov_differs_from_heavy_ball(self):
        heavy, nesterov = {"w": np.array([0.0])}, {"w": np.array([0.0])}
        heavy_opt = SGD(learning_rate=1.0, momentum=0.9)
        nesterov_opt = SGD(learning_rate=1.0, momentum=0.9, nesterov=True)
        for _ in range(2):
            heavy_opt.step(heavy, {"w": np.array([1.0])})
            nesterov_opt.step(nesterov, {"w": np.array([1.0])})
        assert not np.allclose(heavy["w"], nesterov["w"])

    def test_step_count_and_lr_property(self):
        optimizer = SGD(learning_rate=0.1)
        weights = make_weights()
        optimizer.step(weights, {"w": np.zeros(2)})
        assert optimizer.step_count == 1
        optimizer.learning_rate = 0.01
        assert optimizer.learning_rate == 0.01
        with pytest.raises(ValueError):
            optimizer.learning_rate = 0.0

    def test_unknown_gradient_key_rejected(self):
        with pytest.raises(KeyError):
            SGD(0.1).step(make_weights(), {"missing": np.zeros(1)})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SGD(0.1).step(make_weights(), {"w": np.zeros(5)})

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            SGD(0.0)
        with pytest.raises(ValueError):
            SGD(0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(0.1, weight_decay=-1)
        with pytest.raises(ValueError):
            SGD(0.1, nesterov=True)

    def test_state_dict_round_trip(self):
        weights = make_weights()
        optimizer = SGD(learning_rate=0.5, momentum=0.9)
        optimizer.step(weights, {"w": np.ones(2)})
        restored = SGD(learning_rate=0.5, momentum=0.9)
        restored.load_state_dict(optimizer.state_dict())
        weights_a, weights_b = make_weights(), make_weights()
        optimizer.step(weights_a, {"w": np.ones(2)})
        restored.step(weights_b, {"w": np.ones(2)})
        assert np.allclose(weights_a["w"], weights_b["w"])

    def test_gradient_descent_converges_on_quadratic(self):
        weights = {"x": np.array([5.0])}
        optimizer = SGD(learning_rate=0.1)
        for _ in range(200):
            optimizer.step(weights, {"x": 2 * weights["x"]})
        assert abs(weights["x"][0]) < 1e-6

    @pytest.mark.parametrize("nesterov", [False, True], ids=["heavy-ball", "nesterov"])
    def test_steps_follow_the_documented_rule(self, nesterov):
        """g += wd * w; v = m * v + g; w -= lr * v (or lr * (g + m * v))."""
        lr, momentum, decay = 0.1, 0.9, 0.01
        weights = {"w": np.array([1.0, -2.0])}
        optimizer = SGD(lr, momentum=momentum, weight_decay=decay, nesterov=nesterov)
        w, v = weights["w"].copy(), np.zeros(2)
        for gradient in ([0.5, 1.0], [-1.0, 0.25], [2.0, 0.0]):
            gradient = np.array(gradient)
            optimizer.step(weights, {"w": gradient}, scale=0.5)
            g = 0.5 * gradient + decay * w
            v = momentum * v + g
            w = w - lr * (g + momentum * v if nesterov else v)
            assert np.allclose(weights["w"], w, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_and_velocity_keep_their_dtype(self, dtype):
        weights = {"w": np.ones(3, dtype=dtype)}
        optimizer = SGD(0.1, momentum=0.9)
        optimizer.step(weights, {"w": np.full(3, 0.5)})
        assert weights["w"].dtype == dtype
        assert optimizer.state_dict()["velocity"]["w"].dtype == dtype

    def test_a_zero_scale_leaves_plain_sgd_weights_unchanged(self):
        weights = make_weights()
        SGD(0.1).step(weights, {"w": np.array([3.0, -4.0])}, scale=0.0)
        assert np.array_equal(weights["w"], make_weights()["w"])


class TestOptimizerState:
    """Learning rate, step count and ``state_dict``: the bookkeeping a
    checkpoint carries, kept key for key now the base class is folded in."""

    def test_state_dict_carries_every_checkpoint_key(self):
        state = SGD(0.1, momentum=0.5, weight_decay=1e-3).state_dict()
        assert set(state) == {
            "step_count", "learning_rate", "base_learning_rate",
            "momentum", "weight_decay", "nesterov", "velocity",
        }
        assert (state["momentum"], state["weight_decay"], state["nesterov"]) == (0.5, 1e-3, False)
        assert state["step_count"] == 0 and state["velocity"] == {}

    def test_base_learning_rate_outlives_a_schedule_change(self):
        optimizer = SGD(0.1)
        optimizer.learning_rate = 0.01
        assert (optimizer.base_learning_rate, optimizer.learning_rate) == (0.1, 0.01)
        restored = SGD(1.0)
        restored.load_state_dict(optimizer.state_dict())
        assert (restored.base_learning_rate, restored.learning_rate) == (0.1, 0.01)

    def test_a_new_learning_rate_applies_from_the_next_step(self):
        weights = {"w": np.array([1.0])}
        optimizer = SGD(0.1)
        optimizer.step(weights, {"w": np.array([1.0])})
        optimizer.learning_rate = 0.01
        optimizer.step(weights, {"w": np.array([1.0])})
        assert weights["w"][0] == pytest.approx(1.0 - 0.1 - 0.01)
        assert optimizer.step_count == 2

    @pytest.mark.parametrize("value", [0.0, -0.1])
    def test_learning_rate_setter_rejects_non_positive_values(self, value):
        optimizer = SGD(0.1)
        with pytest.raises(ValueError, match="learning_rate must be > 0"):
            optimizer.learning_rate = value
        assert optimizer.learning_rate == 0.1

    def test_a_minimal_state_keeps_the_constructor_hyperparameters(self):
        optimizer = SGD(0.5, momentum=0.9, weight_decay=1e-4)
        optimizer.load_state_dict({"step_count": 7, "learning_rate": 0.2})
        assert optimizer.step_count == 7
        assert (optimizer.learning_rate, optimizer.base_learning_rate) == (0.2, 0.2)
        assert (optimizer.momentum, optimizer.weight_decay, optimizer.nesterov) == (0.9, 1e-4, False)
        assert optimizer.state_dict()["velocity"] == {}

    def test_state_velocity_is_copied_both_ways(self):
        optimizer = SGD(0.1, momentum=0.9)
        weights = make_weights()
        optimizer.step(weights, {"w": np.ones(2)})
        exported = optimizer.state_dict()
        exported["velocity"]["w"][:] = 99.0
        assert np.array_equal(optimizer.state_dict()["velocity"]["w"], np.ones(2))
        source = {"step_count": 1, "learning_rate": 0.1, "velocity": {"w": np.ones(2)}}
        restored = SGD(0.1, momentum=0.9)
        restored.load_state_dict(source)
        source["velocity"]["w"][:] = 99.0
        assert np.array_equal(restored.state_dict()["velocity"]["w"], np.ones(2))

    def test_step_flat_counts_one_step_per_push_over_any_number_of_shards(self):
        shards = [FlatShard({"a": np.ones(3)}), FlatShard({"b": np.ones(2)})]
        optimizer = SGD(0.1)
        optimizer.step_flat(
            [shards[0].make_update({"a": np.ones(3)}), shards[1].make_update({"b": np.ones(2)})]
        )
        assert optimizer.step_count == 1
        assert np.allclose(shards[0].view("a"), 0.9) and np.allclose(shards[1].view("b"), 0.9)


class TestSparseRuns:
    """A sparse push through the sparse kernel vs its dense decode through
    the dense one: the same numbers.

    ``np.array_equal``, not ``tobytes()``: where the gradient is zero the
    dense kernel still adds it, and IEEE ``-0.0 + 0.0`` is ``+0.0`` — a
    negative-zero velocity changes sign there and stays as it is here.
    """

    SIZE = 3 * SGD._CHUNK // 2 + 7  # two chunks, the second one ragged

    def run_pair(self, codec, dtype, momentum, steps=3):
        rng = np.random.default_rng(0)
        initial = {"w": rng.standard_normal(self.SIZE - 5), "b": rng.standard_normal(5)}
        shards = [FlatShard(initial, dtype=dtype) for _ in range(2)]
        optimizers = [SGD(0.05, momentum=momentum) for _ in range(2)]
        codec = make_codec(codec)
        for _ in range(steps):
            encoded = codec.encode(0, rng.standard_normal(self.SIZE))
            assert encoded.scheme == "sparse"
            for shard, optimizer, push in zip(
                shards, optimizers, (decode_shard(encoded), encoded)
            ):
                optimizer.step_flat([shard.make_flat_update(push)], scale=0.5)
        return shards, optimizers, encoded

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("codec", ["topk:0.01", "significance:2.0"])
    def test_sparse_run_equals_the_dense_run_of_the_same_push(self, codec, dtype, momentum):
        (dense, sparse), (dense_opt, sparse_opt), _ = self.run_pair(codec, dtype, momentum)
        assert sparse.buffer.dtype == np.dtype(dtype)
        assert np.array_equal(dense.buffer, sparse.buffer)
        velocity, expected = sparse_opt.state_dict()["velocity"], dense_opt.state_dict()["velocity"]
        assert velocity.keys() == expected.keys() == ({"w", "b"} if momentum else set())
        for name in expected:
            assert velocity[name].dtype == np.dtype(dtype)
            assert np.array_equal(velocity[name], expected[name])

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_an_empty_push_still_decays_the_velocity(self, momentum):
        # Nothing is significant at this threshold: k = 0 on every push but
        # the first, which seeds a velocity for the later ones to decay.
        shards, optimizers, _ = self.run_pair("topk:0.01", "float64", momentum, steps=1)
        before = shards[1].buffer.copy()
        empty = make_codec("significance:1e9").encode(0, np.ones(self.SIZE))
        assert empty.arrays[0].size == 0
        for shard, optimizer, push in zip(shards, optimizers, (decode_shard(empty), empty)):
            optimizer.step_flat([shard.make_flat_update(push)], scale=0.5)
        assert np.array_equal(shards[0].buffer, shards[1].buffer)
        assert np.array_equal(before, shards[1].buffer) == (momentum == 0.0)

    def test_a_negative_zero_velocity_is_the_one_difference(self):
        shards = [FlatShard({"w": np.ones(4)}) for _ in range(2)]
        optimizers = [SGD(0.05, momentum=0.9) for _ in range(2)]
        empty = EncodedShard(0, 4, "sparse", (np.empty(0, np.int32), np.empty(0)))
        for shard, optimizer, push in zip(shards, optimizers, (decode_shard(empty), empty)):
            optimizer.load_state_dict(
                {**optimizer.state_dict(), "velocity": {"w": np.full(4, -0.0)}}
            )
            optimizer.step_flat([shard.make_flat_update(push)], scale=1.0)
        dense, sparse = (optimizer.state_dict()["velocity"]["w"] for optimizer in optimizers)
        assert np.array_equal(dense, sparse)
        assert not np.signbit(dense).any() and np.signbit(sparse).all()

    def test_only_plain_and_heavy_ball_sgd_take_sparse_runs(self):
        assert SGD(0.1).sparse_runs and SGD(0.1, momentum=0.9).sparse_runs
        assert not SGD(0.1, momentum=0.9, weight_decay=1e-4).sparse_runs
        assert not SGD(0.1, momentum=0.9, nesterov=True).sparse_runs

    @pytest.mark.parametrize(
        "indices", [[3, 1], [1, 1], [-1, 2], [2, 9]], ids=["unsorted", "duplicate", "negative", "beyond"]
    )
    def test_indices_off_the_wire_are_checked(self, indices):
        shard = FlatShard({"w": np.ones(9)})
        push = EncodedShard(0, 9, "sparse", (np.array(indices, np.int32), np.ones(2)))
        with pytest.raises(ValueError, match="sorted unique indices"):
            shard.make_flat_update(push)
