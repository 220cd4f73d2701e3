"""One store, two shard placements.

``ShardedKeyValueStore`` (N heap shards, one included) and ``SharedFlatStore``
(shards in shared memory) are constructors of one class.  These tests pin
what that buys: the same pushes leave bit-identical state whatever the
placement, writes validate before they touch anything, checkpoints cross
placements, and a one-shard store follows the same pull rule.
"""

import multiprocessing

import numpy as np
import pytest

from repro.optim.sgd import SGD
from repro.ps.checkpoint import restore_into, save_checkpoint
from repro.ps.messages import FlatPullPayload
from repro.ps.sharding import ShardedKeyValueStore, make_store
from repro.ps.shm import SharedFlatStore, create_shared_store

PLACEMENTS = ["heap-1", "heap-4", "shared-1", "shared-4"]


def make_state(seed=0):
    rng = np.random.default_rng(seed)
    weights = {f"layer{i}.weight": rng.normal(size=(3, i + 1)) for i in range(6)}
    buffers = {"bn.mean": rng.normal(size=3), "bn.var": np.ones(1)}
    return weights, buffers


@pytest.fixture()
def build_store():
    """``build(placement, weights, buffers)`` → store; segments unlinked after."""
    handles, stores = [], []

    def build(placement, weights, buffers=None):
        kind, num_shards = placement.split("-")
        if kind == "heap":
            return make_store(weights, buffers, num_shards=int(num_shards))
        handle = create_shared_store(
            weights,
            buffers,
            num_shards=int(num_shards),
            slots=3,
            context=multiprocessing.get_context(),
        )
        handles.append(handle)
        stores.append(SharedFlatStore(handle))
        return stores[-1]

    try:
        yield build
    finally:
        for store in stores:
            store.close()
        for handle in handles:
            handle.unlink_all()


def packed(store, gradients):
    """``gradients`` packed per shard in the store's own layout."""
    return {
        index: np.concatenate([gradients[seg.name].ravel() for seg in segments])
        for index, segments in store.flat_layouts
        if segments
    }


class TestPlacementParity:
    def test_same_pushes_leave_identical_state(self, build_store):
        weights, buffers = make_state()
        stores = {p: build_store(p, weights, buffers) for p in PLACEMENTS}
        optimizers = {p: SGD(0.1, momentum=0.9, weight_decay=1e-4) for p in PLACEMENTS}
        rng = np.random.default_rng(7)
        for step in range(7):
            gradients = {n: rng.normal(size=a.shape) for n, a in weights.items()}
            for placement, store in stores.items():
                if step < 4:
                    version = store.apply_gradients(
                        gradients, optimizers[placement], scale=0.5
                    )
                else:
                    version = store.apply_gradients(
                        {},
                        optimizers[placement],
                        scale=0.5,
                        flat_gradients=packed(store, gradients),
                    )
                assert version == step + 1
        reference = stores["heap-1"].weights_snapshot()
        for placement, store in stores.items():
            assert store.version == 7, placement
            snapshot = store.weights_snapshot()
            for name in weights:
                assert np.array_equal(snapshot[name], reference[name]), (placement, name)
            assert max(store.shard_versions) <= 7 <= sum(store.shard_versions)
        # Per-shard push counters mean the same thing on either placement.
        assert stores["heap-1"].shard_versions == stores["shared-1"].shard_versions == [7]
        assert stores["heap-4"].shard_versions == stores["shared-4"].shard_versions

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_capability_flags_follow_the_shard_count(self, build_store, placement):
        store = build_store(placement, *make_state())
        assert store.supports_concurrent_apply is (store.num_shards > 1)

    @pytest.mark.parametrize("placement", ["heap-1", "shared-1"])
    def test_one_shard_pull_follows_the_shard_rule(self, build_store, placement):
        weights, buffers = make_state()
        store = build_store(placement, weights, buffers)
        name = next(iter(weights))
        store.apply_gradients({name: np.ones(weights[name].shape)}, SGD(0.1))
        tip = store.pull(known_version=store.version)
        assert not tip.flat_weights and not tip.weights and not tip.buffers
        assert tip.wire_nbytes == 0
        # From the base before the push the one shard moved: all of it goes.
        reply = store.pull(known_version=store.version - 1)
        assert len(reply.flat_weights) == 1
        assert isinstance(reply.flat_weights[0], FlatPullPayload)
        assert reply.flat_weights[0].buffer.size == store.num_parameters
        assert reply.wire_nbytes == store.nbytes
        assert set(reply.weights) == set(weights)
        reply.release()

    def test_one_shard_make_store_is_the_sharded_store(self):
        weights, _ = make_state()
        store = make_store(weights, num_shards=1)
        assert type(store) is ShardedKeyValueStore and store.num_shards == 1
        assert store.pull(known_version=0).wire_nbytes == 0
        assert store.pull().wire_nbytes == store.nbytes

    @pytest.mark.parametrize("placement", ["heap-4", "shared-4"])
    def test_packed_only_push_reaches_delta_pulls(self, build_store, placement):
        # A push carrying only the packed buffers names no weight, yet it
        # dirties all of them.
        weights, buffers = make_state()
        store = build_store(placement, weights, buffers)
        gradients = {n: np.ones(a.shape) for n, a in weights.items()}
        store.apply_gradients({}, SGD(0.1), flat_gradients=packed(store, gradients))
        delta = store.pull(known_version=0)
        assert set(delta.weights) == set(weights)
        assert delta.wire_nbytes == store.nbytes
        delta.release()


class TestWritesValidateFirst:
    @pytest.mark.parametrize("placement", ["heap-1", "heap-4", "shared-4"])
    def test_rejected_update_buffers_writes_nothing(self, build_store, placement):
        store = build_store(
            placement, {"w": np.zeros(2)}, {"m": np.zeros(3), "v": np.zeros(2)}
        )
        with pytest.raises(ValueError, match="buffer shape mismatch for 'v'"):
            store.update_buffers({"m": np.ones(3), "v": np.ones(1)})
        with pytest.raises(KeyError, match="unknown entries"):
            store.update_buffers({"m": np.ones(3), "nope": np.ones(1)})
        assert np.array_equal(store.buffers_snapshot()["m"], np.zeros(3))

    @pytest.mark.parametrize("placement", ["heap-1", "heap-4", "shared-4"])
    def test_rejected_overwrite_weights_writes_nothing(self, build_store, placement):
        store = build_store(placement, {"a": np.zeros(3), "b": np.zeros(2)})
        with pytest.raises(ValueError, match="shape mismatch for 'b'"):
            store.overwrite_weights({"a": np.ones(3), "b": np.ones(5)})
        with pytest.raises(KeyError, match="unknown parameters"):
            store.overwrite_weights({"a": np.ones(3), "zzz": np.ones(1)})
        assert np.array_equal(store.weights_snapshot()["a"], np.zeros(3))
        assert store.version == 0


class TestCheckpointAcrossPlacements:
    @pytest.mark.parametrize("placement", ["shared-1", "shared-4"])
    def test_heap_checkpoint_restores_into_shared_store(
        self, build_store, placement, tmp_path
    ):
        weights, buffers = make_state()
        heap = make_store(weights, buffers, num_shards=2)
        optimizer = SGD(0.05, momentum=0.9)
        rng = np.random.default_rng(3)
        for _ in range(3):
            heap.apply_gradients(
                {n: rng.normal(size=a.shape) for n, a in weights.items()}, optimizer
            )
        heap.update_buffers({"bn.mean": np.full(3, 2.5)})
        path = save_checkpoint(tmp_path / "ckpt", heap, optimizer)

        zeros = {n: np.zeros_like(a) for n, a in weights.items()}
        shared = build_store(placement, zeros, {n: np.zeros_like(a) for n, a in buffers.items()})
        restored = SGD(0.05, momentum=0.9)
        metadata = restore_into(path, shared, restored)

        assert metadata.version == shared.version == 3
        saved, state = heap.snapshot(), shared.snapshot()
        assert set(state) == set(saved)
        for name in saved:
            assert np.array_equal(state[name], saved[name]), name
        velocity = optimizer.state_dict()["velocity"]
        restored_velocity = restored.state_dict()["velocity"]
        assert set(restored_velocity) == set(velocity) == set(weights)
        for name in velocity:
            assert np.array_equal(restored_velocity[name], velocity[name]), name
        # And back: a shared store checkpoints like any other.
        again = save_checkpoint(tmp_path / "again", shared, restored)
        fresh = make_store(zeros, buffers)
        assert restore_into(again, fresh, SGD(0.05, momentum=0.9)).version == 3
        assert np.array_equal(fresh.snapshot()["bn.mean"], np.full(3, 2.5))
