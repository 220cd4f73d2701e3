"""Tests for server-state checkpointing."""

import numpy as np
import pytest

from repro.optim.sgd import SGD
from repro.ps.checkpoint import (
    CheckpointMetadata,
    load_checkpoint,
    load_codec_states,
    restore_into,
    save_checkpoint,
)
from repro.ps.compression import TopKCodec, decode_shard
from repro.ps.sharding import make_store
from repro.utils.serialization import states_allclose

INITIAL_SHAPES = {"layer.weight": (4, 3), "layer.bias": (3,)}


def _initial_arrays(rng):
    return {name: rng.normal(size=shape) for name, shape in INITIAL_SHAPES.items()}


def make_store_and_optimizer(num_shards=1):
    rng = np.random.default_rng(0)
    weights = _initial_arrays(rng)
    buffers = {"bn.running_mean": rng.normal(size=3)}
    store = make_store(weights, buffers, num_shards=num_shards)
    optimizer = SGD(learning_rate=0.05, momentum=0.9)
    # Apply a few updates so velocity and version are non-trivial.
    for _ in range(3):
        store.apply_gradients(
            {"layer.weight": rng.normal(size=(4, 3)), "layer.bias": rng.normal(size=3)}, optimizer
        )
    return store, optimizer


def make_fresh_store(num_shards=1):
    weights = {name: np.zeros(shape) for name, shape in INITIAL_SHAPES.items()}
    buffers = {"bn.running_mean": np.zeros(3)}
    return make_store(weights, buffers, num_shards=num_shards)


class TestSaveLoad:
    def test_round_trip_restores_everything(self, tmp_path):
        store, optimizer = make_store_and_optimizer()
        path = save_checkpoint(
            tmp_path / "ckpt", store, optimizer, paradigm="dssp", extra={"epoch": 7}
        )
        assert path.suffix == ".npz"

        weights, buffers, velocity, metadata = load_checkpoint(path)
        assert states_allclose(weights, store.weights_snapshot())
        assert states_allclose(buffers, store.buffers)
        assert set(velocity) == {"layer.weight", "layer.bias"}
        assert metadata.version == 3
        assert metadata.paradigm == "dssp"
        assert metadata.extra["epoch"] == 7

    def test_restore_into_fresh_store_resumes_identically(self, tmp_path):
        store, optimizer = make_store_and_optimizer()
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer, paradigm="ssp")

        rng = np.random.default_rng(9)
        fresh_store = make_fresh_store()
        fresh_optimizer = SGD(learning_rate=0.05, momentum=0.9)
        metadata = restore_into(path, fresh_store, fresh_optimizer)
        assert metadata.paradigm == "ssp"
        assert fresh_store.version == store.version == 3
        assert states_allclose(fresh_store.weights_snapshot(), store.weights_snapshot())

        # Applying the same gradient to both must give identical results,
        # which requires the momentum velocity to have been restored.
        gradient = {"layer.weight": rng.normal(size=(4, 3)), "layer.bias": rng.normal(size=3)}
        store.apply_gradients(dict(gradient), optimizer)
        fresh_store.apply_gradients(dict(gradient), fresh_optimizer)
        assert states_allclose(fresh_store.weights_snapshot(), store.weights_snapshot())

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        # A crash mid-save must leave the previous checkpoint readable and
        # no temp debris behind — the restartable TCP server relies on it.
        store, optimizer = make_store_and_optimizer()
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer, paradigm="bsp")
        before = path.read_bytes()

        def explode(stream, **arrays):
            stream.write(b"half a checkpoint")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez_compressed", explode)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(tmp_path / "ckpt", store, optimizer, paradigm="bsp")
        assert path.read_bytes() == before  # old checkpoint untouched
        assert list(tmp_path.iterdir()) == [path]  # temp file cleaned up
        load_checkpoint(path)  # still a valid archive

    def test_save_leaves_no_temp_files(self, tmp_path):
        store, optimizer = make_store_and_optimizer()
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer)
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer)  # overwrite
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nothing.npz")

    def test_restore_rejects_mismatched_model(self, tmp_path):
        store, optimizer = make_store_and_optimizer()
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer)
        other = make_store({"different": np.zeros(2)})
        with pytest.raises(KeyError):
            restore_into(path, other, SGD(0.05))

    def test_metadata_json_round_trip(self):
        metadata = CheckpointMetadata(version=12, paradigm="bsp", extra={"note": "x"})
        restored = CheckpointMetadata.from_json(metadata.to_json())
        assert restored == metadata


class TestShardedCheckpoints:
    """Checkpoints round-trip across store layouts (satellite task)."""

    def test_sharded_round_trip_preserves_shard_versions(self, tmp_path):
        store, optimizer = make_store_and_optimizer(num_shards=2)
        assert store.version == 3
        saved_shard_versions = store.shard_versions
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer, paradigm="dssp")

        fresh_store = make_fresh_store(num_shards=2)
        fresh_optimizer = SGD(learning_rate=0.05, momentum=0.9)
        metadata = restore_into(path, fresh_store, fresh_optimizer)
        assert metadata.version == 3
        assert fresh_store.version == 3
        assert fresh_store.shard_versions == saved_shard_versions
        assert states_allclose(fresh_store.weights_snapshot(), store.weights_snapshot())
        assert states_allclose(fresh_store.buffers, store.buffers)

    def test_sharded_restore_resumes_identically(self, tmp_path):
        store, optimizer = make_store_and_optimizer(num_shards=2)
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer)
        fresh_store = make_fresh_store(num_shards=2)
        fresh_optimizer = SGD(learning_rate=0.05, momentum=0.9)
        restore_into(path, fresh_store, fresh_optimizer)

        rng = np.random.default_rng(9)
        gradient = {"layer.weight": rng.normal(size=(4, 3)), "layer.bias": rng.normal(size=3)}
        store.apply_gradients(dict(gradient), optimizer)
        fresh_store.apply_gradients(dict(gradient), fresh_optimizer)
        assert states_allclose(fresh_store.weights_snapshot(), store.weights_snapshot())
        assert fresh_store.version == store.version

    def test_monolithic_checkpoint_loads_into_sharded_store(self, tmp_path):
        store, optimizer = make_store_and_optimizer(num_shards=1)
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer)

        sharded = make_fresh_store(num_shards=2)
        metadata = restore_into(path, sharded, SGD(learning_rate=0.05, momentum=0.9))
        assert metadata.version == 3
        assert sharded.version == 3
        # No per-shard counters in a monolithic checkpoint: every shard falls
        # back to the global version, a safe upper bound.
        assert sharded.shard_versions == [3, 3]
        assert states_allclose(sharded.weights_snapshot(), store.weights_snapshot())
        # The restored state must be resent in full on the next delta pull:
        # every shard's weights and buffers.
        delta = sharded.pull(known_version=0)
        assert set(delta.weights) == set(sharded.parameter_names)
        assert delta.wire_nbytes == sharded.nbytes

    def test_sharded_checkpoint_loads_into_monolithic_store(self, tmp_path):
        store, optimizer = make_store_and_optimizer(num_shards=4)
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer)
        mono = make_fresh_store(num_shards=1)
        metadata = restore_into(path, mono, SGD(learning_rate=0.05, momentum=0.9))
        assert metadata.extra["shard_versions"] == store.shard_versions
        assert mono.version == 3
        assert states_allclose(mono.weights_snapshot(), store.weights_snapshot())

    def test_sharded_checkpoint_into_different_shard_count(self, tmp_path):
        store, optimizer = make_store_and_optimizer(num_shards=4)
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer)
        other = make_fresh_store(num_shards=2)
        restore_into(path, other, SGD(learning_rate=0.05, momentum=0.9))
        assert other.version == 3
        assert other.shard_versions == [3, 3]
        assert states_allclose(other.weights_snapshot(), store.weights_snapshot())


class TestCodecStates:
    """Error-feedback residuals ride along in checkpoints (satellite task)."""

    def test_codec_states_round_trip(self, tmp_path):
        store, optimizer = make_store_and_optimizer()
        rng = np.random.default_rng(4)
        codecs = {worker: TopKCodec(density=0.1) for worker in ("w0", "w1")}
        for codec in codecs.values():
            for shard in (0, 1):
                codec.encode(shard, rng.normal(size=50))
        path = save_checkpoint(
            tmp_path / "ckpt", store, optimizer,
            codec_states={w: c.state_dict() for w, c in codecs.items()},
        )

        states = load_codec_states(path)
        assert set(states) == {"w0", "w1"}
        for worker, codec in codecs.items():
            expected = codec.state_dict()
            assert set(states[worker]) == set(expected) == {"0", "1"}
            for key in expected:
                np.testing.assert_array_equal(states[worker][key], expected[key])

    def test_checkpoint_without_codec_states_loads_empty(self, tmp_path):
        store, optimizer = make_store_and_optimizer()
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer)
        assert load_codec_states(path) == {}
        # The codec arrays must not pollute the regular sections either.
        weights, buffers, velocity, _ = load_checkpoint(path)
        assert set(weights) == set(INITIAL_SHAPES)

    def test_separator_in_worker_id_rejected(self, tmp_path):
        store, optimizer = make_store_and_optimizer()
        with pytest.raises(ValueError, match="::"):
            save_checkpoint(
                tmp_path / "ckpt", store, optimizer,
                codec_states={"w::0": {"0": np.zeros(3)}},
            )

    def test_restore_then_continue_matches_uninterrupted(self, tmp_path):
        """A restored codec picks up exactly where the saved one left off."""
        rng = np.random.default_rng(11)
        pushes = [rng.normal(size=80) for _ in range(6)]

        uninterrupted = TopKCodec(density=0.05)
        shipped_expected = [
            decode_shard(uninterrupted.encode(0, g.copy()), out=np.empty(80)).copy()
            for g in pushes
        ]

        # Train for three pushes, checkpoint, "crash", restore, continue.
        store, optimizer = make_store_and_optimizer()
        first_half = TopKCodec(density=0.05)
        shipped = [
            decode_shard(first_half.encode(0, g.copy()), out=np.empty(80)).copy()
            for g in pushes[:3]
        ]
        path = save_checkpoint(
            tmp_path / "ckpt", store, optimizer,
            codec_states={"w0": first_half.state_dict()},
        )
        restored = TopKCodec(density=0.05)
        restored.load_state_dict(load_codec_states(path)["w0"])
        shipped += [
            decode_shard(restored.encode(0, g.copy()), out=np.empty(80)).copy()
            for g in pushes[3:]
        ]
        for step, (got, want) in enumerate(zip(shipped, shipped_expected)):
            np.testing.assert_array_equal(got, want, err_msg=f"push {step}")
