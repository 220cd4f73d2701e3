"""Tests for the gradient push codecs (repro.ps.compression).

Covers the codec registry and spec parsing, encode/decode round trips for
every scheme, error-feedback accounting, the shared-memory framing, and the
codec-through-server integration: compressed pushes composed with delta
pulls at the version tip must not leak copy-on-write leases.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.factory import make_policy
from repro.optim.sgd import SGD
from repro.ps.compression import (
    CODECS,
    EncodedShard,
    Fp16Codec,
    GradientCodec,
    Int8Codec,
    NoneCodec,
    SignificanceCodec,
    TopKCodec,
    decode_shard,
    frame_capacity,
    make_codec,
    parse_codec_spec,
    read_encoded,
    register_codec,
    validate_codec_spec,
    write_encoded,
)
from repro.ps.session import ServerEvent, ServerSession
from repro.ps.sharding import ShardedKeyValueStore


def _grad(size: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=size)


def _spikes(values: dict[int, float], size: int = 100) -> np.ndarray:
    acc = np.zeros(size)
    acc[list(values)] = list(values.values())
    return acc


def _argpartition_keep(acc: np.ndarray, k: int) -> np.ndarray:
    """The indices top-k keeps by a full ``argpartition`` of ``|acc|``."""
    keep = np.argpartition(np.abs(acc), acc.size - k)[acc.size - k :]
    keep.sort()
    return keep.astype(np.int32)


# ----------------------------------------------------------------------
# Registry and spec parsing
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_codecs_registered(self):
        assert tuple(sorted(CODECS)) == ("fp16", "int8", "none", "significance", "topk")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate codec"):
            register_codec(NoneCodec)

    def test_parse_bare_name(self):
        assert parse_codec_spec("none") == ("none", {})

    def test_parse_positional_value(self):
        assert parse_codec_spec("topk:0.05") == ("topk", {"density": 0.05})

    def test_parse_keyword_params(self):
        name, params = parse_codec_spec("int8:chunk=512,seed=3")
        assert name == "int8"
        assert params == {"chunk": 512.0, "seed": 3.0}

    def test_unknown_codec_lists_available(self):
        with pytest.raises(ValueError, match="topk"):
            parse_codec_spec("gzip")

    def test_positional_on_positionless_codec_rejected(self):
        with pytest.raises(ValueError, match="no positional"):
            parse_codec_spec("fp16:0.5")

    def test_non_numeric_parameter_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_codec_spec("topk:density=lots")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ValueError, match="duplicate codec parameter"):
            parse_codec_spec("topk:0.1,density=0.2")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            make_codec("topk:sparsity=0.1")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_codec_spec("")

    def test_make_codec_builds_configured_instance(self):
        codec = make_codec("topk:0.02")
        assert isinstance(codec, TopKCodec)
        assert codec.density == 0.02

    def test_out_of_range_parameters_rejected(self):
        with pytest.raises(ValueError, match="density"):
            make_codec("topk:0.0")
        with pytest.raises(ValueError, match="chunk"):
            make_codec("int8:chunk=0")
        with pytest.raises(ValueError, match="threshold"):
            make_codec("significance:0")


# ----------------------------------------------------------------------
# Encode / decode round trips
# ----------------------------------------------------------------------
class TestNoneCodec:
    def test_zero_copy_identity(self):
        grad = _grad(64)
        encoded = NoneCodec().encode(0, grad)
        assert encoded.scheme == "dense"
        assert decode_shard(encoded) is grad  # the very same buffer
        assert encoded.nbytes == grad.nbytes

    def test_decode_into_scratch(self):
        grad = _grad(16)
        out = np.empty(16)
        assert decode_shard(NoneCodec().encode(0, grad), out=out) is out
        np.testing.assert_array_equal(out, grad)


class TestFp16Codec:
    def test_halves_the_wire_bytes(self):
        grad = _grad(128)
        encoded = Fp16Codec().encode(0, grad)
        assert encoded.nbytes == grad.nbytes // 4  # f64 -> f16
        np.testing.assert_allclose(decode_shard(encoded, out=np.empty(128)),
                                   grad, atol=1e-2)


class TestInt8Codec:
    def test_quantization_error_bounded_by_scale(self):
        grad = _grad(1000)
        codec = Int8Codec(chunk=256)
        encoded = codec.encode(0, grad.copy())
        assert encoded.scheme == "qint8"
        codes, scales = encoded.arrays
        assert codes.dtype == np.int8 and scales.size == 4
        decoded = decode_shard(encoded)
        # Stochastic rounding moves each element by at most one code step
        # (the effective chunk is ceil(size / num_chunks) = 250, not 256).
        steps = np.repeat(scales, 250)[: grad.size]
        assert np.all(np.abs(decoded - grad) <= steps + 1e-12)

    def test_reseed_makes_encoding_deterministic(self):
        grad = _grad(500)
        first, second = Int8Codec(chunk=128), Int8Codec(chunk=128)
        first.reseed(np.random.default_rng(7))
        second.reseed(np.random.default_rng(7))
        np.testing.assert_array_equal(
            first.encode(0, grad.copy()).arrays[0],
            second.encode(0, grad.copy()).arrays[0],
        )

    def test_zero_gradient_round_trips_exactly(self):
        encoded = Int8Codec().encode(0, np.zeros(32))
        np.testing.assert_array_equal(decode_shard(encoded), np.zeros(32))


class TestTopKCodec:
    def test_ships_the_largest_magnitudes(self):
        grad = np.zeros(100)
        grad[[3, 50, 97]] = [5.0, -7.0, 2.0]
        encoded = TopKCodec(density=0.03).encode(0, grad)
        indices, values = encoded.arrays
        np.testing.assert_array_equal(indices, [3, 50, 97])
        np.testing.assert_array_equal(values, [5.0, -7.0, 2.0])

    def test_error_feedback_conserves_mass(self):
        # Whatever is not shipped stays in the residual: shipped + residual
        # always equals the running sum of pushed gradients.
        codec = TopKCodec(density=0.1)
        total = np.zeros(200)
        shipped = np.zeros(200)
        for seed in range(5):
            grad = _grad(200, seed=seed)
            total += grad
            shipped += decode_shard(codec.encode(0, grad), out=np.empty(200))
        np.testing.assert_allclose(shipped + codec.state_dict()["0"], total)

    def test_unsent_components_eventually_ship(self):
        codec = TopKCodec(density=0.5)
        grad = np.array([10.0, 1.0])
        first = decode_shard(codec.encode(0, grad.copy()))
        np.testing.assert_array_equal(first, [10.0, 0.0])
        # Pushing zeros lets the held-back component surface.
        second = decode_shard(codec.encode(0, np.zeros(2)))
        np.testing.assert_array_equal(second, [0.0, 1.0])

    def test_residuals_are_per_shard(self):
        codec = TopKCodec(density=0.5)
        codec.encode(0, np.array([1.0, 2.0]))
        codec.encode(1, np.array([3.0, 4.0, 5.0]))
        state = codec.state_dict()
        assert set(state) == {"0", "1"}
        assert state["0"].size == 2 and state["1"].size == 3

    def test_state_round_trip(self):
        codec = TopKCodec(density=0.25)
        for seed in range(3):
            codec.encode(0, _grad(40, seed=seed))
        clone = TopKCodec(density=0.25)
        clone.load_state_dict(codec.state_dict())
        grad = _grad(40, seed=99)
        np.testing.assert_array_equal(
            decode_shard(codec.encode(0, grad.copy()), out=np.empty(40)),
            decode_shard(clone.encode(0, grad.copy()), out=np.empty(40)),
        )

    def test_steady_state_encode_allocates_only_its_payload(self):
        # The perfbench MLP's gradient: a per-step magnitude or index array
        # alone would be 1.6 MB; the payload is ~24 KB.
        codec, grad = TopKCodec(density=0.01), _grad(199_210)
        codec.encode(0, grad)
        tracemalloc.start()
        try:
            codec.encode(0, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grad.nbytes / 4

    @pytest.mark.parametrize(
        "acc",
        [
            np.zeros(100),  # all zero: every magnitude ties
            # k=3: the 2.0, then two of five equal magnitudes at the threshold
            _spikes({5: 2.0, 10: 1.0, 21: -1.0, 30: 1.0, 41: -1.0, 50: 1.0}),
            _spikes({7: 4.0, 67: -3.0}),  # k >= the non-zero count
            _grad(100),
        ],
        ids=["all-zero", "straddling-ties", "few-non-zeros", "no-ties"],
    )
    def test_selection_is_what_argpartition_keeps(self, acc):
        encoded = TopKCodec(density=0.03).encode(0, acc.copy())
        np.testing.assert_array_equal(encoded.arrays[0], _argpartition_keep(acc, 3))

    def test_frames_are_the_argpartition_encodes_step_for_step(self):
        codec, residual = TopKCodec(density=0.01), np.zeros(5000)
        for seed in range(6):
            grad = np.round(_grad(5000, seed=seed), 1)  # rounding makes ties
            residual += grad
            keep = _argpartition_keep(residual, 50)
            indices, values = codec.encode(0, grad).arrays
            np.testing.assert_array_equal(indices, keep)
            np.testing.assert_array_equal(values, residual[keep])
            residual[keep] = 0.0

    def test_stateless_codec_rejects_state(self):
        with pytest.raises(ValueError, match="no state"):
            NoneCodec().load_state_dict({"0": np.zeros(4)})
        NoneCodec().load_state_dict({})  # empty state is fine


class TestSignificanceCodec:
    def test_ships_only_significant_components(self):
        grad = np.ones(100) * 0.1
        grad[7] = 50.0
        encoded = SignificanceCodec(threshold=2.0).encode(0, grad)
        indices, values = encoded.arrays
        np.testing.assert_array_equal(indices, [7])
        np.testing.assert_array_equal(values, [50.0])

    def test_zero_gradient_ships_nothing(self):
        encoded = SignificanceCodec().encode(0, np.zeros(64))
        assert encoded.arrays[0].size == 0
        np.testing.assert_array_equal(decode_shard(encoded), np.zeros(64))

    def test_insignificant_mass_accumulates_until_significant(self):
        codec = SignificanceCodec(threshold=1.5)
        grad = np.ones(10)  # uniform: |g| == rms, nothing significant
        assert codec.encode(0, grad.copy()).arrays[0].size == 0
        # The residual keeps growing; a later skewed push ships the total.
        grad2 = np.zeros(10)
        grad2[3] = 30.0
        encoded = codec.encode(0, grad2)
        indices, values = encoded.arrays
        np.testing.assert_array_equal(indices, [3])
        np.testing.assert_array_equal(values, [31.0])  # 1.0 residual + 30.0


# ----------------------------------------------------------------------
# Capacity bounds and shared-memory framing
# ----------------------------------------------------------------------
ALL_CODECS = [
    NoneCodec(),
    Fp16Codec(),
    Int8Codec(chunk=64),
    TopKCodec(density=0.1),
    SignificanceCodec(threshold=0.5),
]


class TestFraming:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    @pytest.mark.parametrize("size", [1, 63, 1000])
    def test_frame_round_trip_within_capacity(self, codec, size):
        grad = _grad(size, seed=size)
        encoded = codec.encode(2, grad.copy())
        capacity = codec.max_encoded_nbytes(size)
        region = np.zeros(capacity, dtype=np.uint8)
        framed = write_encoded(encoded, region)
        assert framed <= capacity
        decoded = read_encoded(region, shard=2)
        assert decoded.shard == 2
        assert decoded.scheme == encoded.scheme
        assert not any(array.flags.writeable for array in decoded.arrays)
        np.testing.assert_array_equal(
            decode_shard(decoded, out=np.empty(size)),
            decode_shard(encoded, out=np.empty(size)),
        )

    def test_capacity_is_8_byte_aligned(self):
        for payload in [(1,), (7, 9), (64, 3, 5)]:
            assert frame_capacity(payload) % 8 == 0

    def test_corrupt_frame_rejected(self):
        region = np.full(64, 0xFF, dtype=np.uint8)
        with pytest.raises(ValueError, match="corrupt"):
            read_encoded(region, shard=0)

    def test_wire_fractions_in_range(self):
        for codec in ALL_CODECS:
            assert 0.0 < codec.wire_fraction() <= 1.0


# ----------------------------------------------------------------------
# Server integration: compressed push + delta pull at the version tip
# ----------------------------------------------------------------------
def _make_server(num_shards=2):
    rng = np.random.default_rng(0)
    weights = {
        "layer1.weight": rng.normal(size=(8, 4)),
        "layer1.bias": rng.normal(size=4),
        "layer2.weight": rng.normal(size=(4, 3)),
    }
    store = ShardedKeyValueStore(weights, num_shards=num_shards)
    session = ServerSession(store, SGD(0.1), make_policy("asp"), gradient_scale=1.0)
    session.dispatch(ServerEvent("w0", "join"))
    return session, store


def _push(session, base_version=0, **gradients):
    """One push from ``w0``, with the full named-gradient mapping of zeros
    the flat path validates names and shapes against."""
    snapshot = session.store.weights_snapshot()
    return session.dispatch(
        ServerEvent(
            "w0",
            "push",
            {"base_version": base_version, "timestamp": 0.0},
            {"named": {name: np.zeros_like(value) for name, value in snapshot.items()}, **gradients},
        )
    )


def _encoded_push(store, codec, seed=0):
    """Encode one synthetic packed gradient per shard."""
    rng = np.random.default_rng(seed)
    payloads = []
    for shard, layout in store.flat_layouts:
        total = sum(segment.size for segment in layout)
        payloads.append(codec.encode(shard, rng.normal(size=total)))
    return tuple(payloads)


class TestServerDecode:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_compressed_push_updates_weights(self, codec):
        session, store = _make_server()
        before = store.weights_snapshot()
        response = _push(session, encoded=_encoded_push(store, codec, seed=3))
        assert response.new_version == 1
        after = store.weights_snapshot()
        changed = any(
            not np.array_equal(before[name], after[name]) for name in before
        )
        # A significance codec may legitimately ship nothing; every other
        # codec must move the weights.
        if codec.name != "significance":
            assert changed

    def test_sparse_push_then_delta_pull_at_tip_leaks_no_lease(self):
        session, store = _make_server()
        codec = TopKCodec(density=0.05)
        for step in range(3):
            _push(session, step, encoded=_encoded_push(store, codec, seed=step))
        # Delta pull at the exact version tip: nothing changed since, the
        # reply is empty and must take no copy-on-write lease at all.
        reply = store.pull(store.version)
        assert not reply.weights and not reply.flat_weights
        assert reply.wire_nbytes == 0
        assert not any(shard.flat.leased for shard in store._shards)

        # A stale pull does lease; releasing it must drop every lease even
        # when interleaved with further sparse pushes.
        stale = store.pull(0)
        assert any(shard.flat.leased for shard in store._shards)
        _push(session, 3, encoded=_encoded_push(store, codec, seed=9))
        stale.release()
        stale.release()  # idempotent
        assert not any(shard.flat.leased for shard in store._shards)

    def test_none_codec_push_bit_for_bit_matches_flat_push(self):
        session_a, store_a = _make_server()
        session_b, store_b = _make_server()
        rng = np.random.default_rng(5)
        flat = {
            shard: rng.normal(size=sum(segment.size for segment in layout))
            for shard, layout in store_a.flat_layouts
        }
        _push(session_a, flat={shard: buf.copy() for shard, buf in flat.items()})
        _push(
            session_b,
            encoded=tuple(NoneCodec().encode(shard, buf.copy()) for shard, buf in flat.items()),
        )
        for name in store_a.parameter_names:
            np.testing.assert_array_equal(
                store_a.weights_snapshot()[name], store_b.weights_snapshot()[name]
            )
