"""Tests for the shard router and the sharded copy-on-write store."""

import numpy as np
import pytest

from repro.core.factory import make_policy
from repro.optim.sgd import SGD
from repro.ps.sharding import ShardedKeyValueStore, ShardRouter, make_store


def make_arrays(num=8, seed=0):
    rng = np.random.default_rng(seed)
    return {f"layer{i}.weight": rng.normal(size=(4, i + 1)) for i in range(num)}


class TestShardRouter:
    def test_hash_routing_is_deterministic_and_stateless(self):
        sizes = {name: array.nbytes for name, array in make_arrays().items()}
        first = ShardRouter(sizes, num_shards=3, strategy="hash")
        second = ShardRouter(sizes, num_shards=3, strategy="hash")
        assert [first.shard_of(key) for key in sizes] == [second.shard_of(key) for key in sizes]
        # Hash routing resolves keys it was not built with.
        assert 0 <= first.shard_of("never.seen") < 3

    def test_size_routing_balances_payload(self):
        rng = np.random.default_rng(1)
        sizes = {f"p{i}": int(rng.integers(1, 1000)) for i in range(64)}
        router = ShardRouter(sizes, num_shards=4, strategy="size")
        assert router.balance() < 1.1  # near-even split
        with pytest.raises(KeyError):
            router.shard_of("never.seen")

    def test_every_key_routed_within_range(self):
        sizes = {name: array.nbytes for name, array in make_arrays().items()}
        for strategy in ("hash", "size"):
            router = ShardRouter(sizes, num_shards=3, strategy=strategy)
            assert all(0 <= router.shard_of(key) < 3 for key in sizes)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ShardRouter({"a": 1}, num_shards=0)
        with pytest.raises(ValueError):
            ShardRouter({"a": 1}, num_shards=2, strategy="nope")
        with pytest.raises(ValueError):
            ShardRouter({}, num_shards=2)


class TestMakeStore:
    def test_factory_selects_layout(self):
        weights = make_arrays(num=2)
        # One shard is the same store under the same pull rule: nothing
        # moved past the base, nothing is resent.
        mono = make_store(weights, num_shards=1)
        assert mono.num_shards == 1
        assert mono.pull(known_version=0).wire_nbytes == 0
        mono.apply_gradients({name: np.ones(a.shape) for name, a in weights.items()}, SGD(0.1))
        moved = mono.pull(known_version=0)
        assert moved.wire_nbytes == mono.nbytes and [p.shard for p in moved.flat_weights] == [0]
        assert mono.pull(known_version=1).wire_nbytes == 0
        sharded = make_store(weights, num_shards=4, dtype="float32")
        assert isinstance(sharded, ShardedKeyValueStore)
        assert sharded.num_shards == 4
        assert sharded.dtype == np.float32
        with pytest.raises(ValueError):
            make_store(weights, num_shards=0)


class TestShardedStoreParity:
    """The sharded store must be numerically identical to the monolithic one."""

    @pytest.mark.parametrize("strategy", ["hash", "size"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 16])
    def test_gradient_application_matches_monolithic(self, num_shards, strategy):
        weights = make_arrays()
        mono = make_store(weights)
        sharded = ShardedKeyValueStore(
            weights, num_shards=num_shards, strategy=strategy
        )
        mono_opt = SGD(0.1, momentum=0.9, weight_decay=1e-4)
        shard_opt = SGD(0.1, momentum=0.9, weight_decay=1e-4)
        rng = np.random.default_rng(7)
        for step in range(5):
            gradients = {
                name: rng.normal(size=array.shape) for name, array in weights.items()
            }
            v1 = mono.apply_gradients(gradients, mono_opt, scale=0.5)
            v2 = sharded.apply_gradients(gradients, shard_opt, scale=0.5)
            assert v1 == v2 == step + 1
        for name in weights:
            assert np.allclose(
                mono.weights_snapshot()[name], sharded.weights_snapshot()[name]
            )
        assert mono.version == sharded.version
        assert sharded.num_parameters == mono.num_parameters
        assert sharded.nbytes == mono.nbytes
        assert sharded.parameter_names == mono.parameter_names

    def test_shard_versions_count_touched_shards_only(self):
        weights = make_arrays(num=4)
        store = ShardedKeyValueStore(weights, num_shards=4, strategy="size")
        name = store.parameter_names[0]
        target = store.shard_of(name)
        store.apply_gradients(
            {name: np.zeros(weights[name].shape)}, SGD(0.1)
        )
        for index, version in enumerate(store.shard_versions):
            assert version == (1 if index == target else 0)
        assert store.version == 1


class TestCopyOnWritePulls:
    def test_pull_views_are_read_only(self):
        store = ShardedKeyValueStore(make_arrays(), num_shards=2)
        reply = store.pull()
        name = next(iter(reply.weights))
        with pytest.raises(ValueError):
            reply.weights[name][0, 0] = 1.0

    def test_snapshot_view_survives_later_updates(self):
        weights = make_arrays()
        store = ShardedKeyValueStore(weights, num_shards=2)
        reply = store.pull()
        before = {name: np.array(value) for name, value in reply.weights.items()}
        rng = np.random.default_rng(3)
        for _ in range(3):
            store.apply_gradients(
                {name: rng.normal(size=a.shape) for name, a in weights.items()},
                SGD(0.5),
            )
        for name, value in reply.weights.items():
            assert np.array_equal(value, before[name]), name
            assert not np.allclose(store.weights_snapshot()[name], before[name])

    def test_delta_pull_returns_only_moved_shards(self):
        weights = make_arrays()
        store = ShardedKeyValueStore(weights, num_shards=4)
        names = store.parameter_names
        first, second = store.shard_of(names[0]), store.shard_of(names[1])
        assert first != second
        store.apply_gradients({names[0]: np.ones(weights[names[0]].shape)}, SGD(0.1))
        store.apply_gradients({names[1]: np.ones(weights[names[1]].shape)}, SGD(0.1))
        delta = store.pull(known_version=1)
        # The whole shard of the moved key goes, and nothing else.
        assert set(delta.weights) == {n for n in names if store.shard_of(n) == second}
        assert [payload.shard for payload in delta.flat_weights] == [second]
        assert delta.wire_nbytes == store.shard_nbytes[second]
        assert delta.version == 2
        # A worker already at the tip gets an empty delta.
        tip = store.pull(known_version=2)
        assert not tip.weights and not tip.flat_weights and tip.wire_nbytes == 0
        # A full pull still carries everything.
        assert set(store.pull().weights) == set(names)

    def test_delta_reconstruction_matches_full_state(self):
        """Copying delta blocks over an old packed replica reproduces a full pull."""
        weights = make_arrays()
        store = ShardedKeyValueStore(weights, num_shards=4)
        replica = {p.shard: np.array(p.buffer) for p in store.pull().flat_weights}
        known = 0
        rng = np.random.default_rng(11)

        def load(delta):
            for payload in delta.flat_weights:
                replica[payload.shard][...] = payload.buffer
            return delta.version

        for _ in range(6):
            subset = rng.choice(store.parameter_names, size=3, replace=False)
            store.apply_gradients(
                {name: rng.normal(size=weights[name].shape) for name in subset},
                SGD(0.2),
            )
            if rng.random() < 0.5:
                known = load(store.pull(known_version=known))
        load(store.pull(known_version=known))
        full = store.pull()
        assert len(full.flat_weights) == len(replica)
        for payload in full.flat_weights:
            assert np.array_equal(replica[payload.shard], payload.buffer), payload.shard

    def test_delta_bytes_shrink_when_few_keys_dirty(self):
        weights = make_arrays(num=10)
        store = ShardedKeyValueStore(weights, num_shards=4)
        full = store.pull()
        name = store.parameter_names[0]
        store.apply_gradients({name: np.ones(weights[name].shape)}, SGD(0.1))
        delta = store.pull(known_version=0)
        assert delta.wire_nbytes == store.shard_nbytes[store.shard_of(name)]
        assert delta.wire_nbytes * 2 <= full.wire_nbytes

    def test_buffer_updates_marked_dirty(self):
        weights = make_arrays(num=2)
        buffers = {"bn.mean": np.zeros(3), "bn.var": np.ones(3)}
        store = ShardedKeyValueStore(weights, buffers, num_shards=2)
        name = store.parameter_names[0]
        store.apply_gradients({name: np.zeros(weights[name].shape)}, SGD(0.1))
        store.update_buffers({"bn.mean": np.full(3, 7.0)})
        written = store.shard_of("bn.mean")
        held = {n for n in buffers if store.shard_of(n) == written}
        # Buffer deltas are inclusive at the boundary version: a buffer
        # stamped with the worker's known version may have been written
        # after that worker's pull returned, so its shard's buffers are
        # resent.
        delta = store.pull(known_version=1)
        assert set(delta.buffers) == held
        assert np.allclose(delta.buffers["bn.mean"], 7.0)
        assert not delta.weights  # the weight update is already at version 1
        assert delta.wire_nbytes == sum(buffers[n].nbytes for n in held)
        # A worker two versions behind receives the shard's buffers too, but
        # not once the tip has moved past the write.
        assert set(store.pull(known_version=0).buffers) == held
        store.apply_gradients({name: np.zeros(weights[name].shape)}, SGD(0.1))
        assert set(store.pull(known_version=2).buffers) == set()


class TestSplitPush:
    def test_staged_push_matches_unstaged_push(self):
        """``ServerSession.apply_push`` then ``finish_push`` — the split a
        caller driving the pieces takes — lands what one dispatched ``push``
        does."""
        from repro.ps.messages import PushRequest
        from repro.ps.session import ServerEvent, ServerSession

        weights = make_arrays(num=4)
        rng = np.random.default_rng(1)
        gradients = {name: rng.normal(size=a.shape) for name, a in weights.items()}
        header = {"base_version": 0, "timestamp": 0.0}
        outcomes = []
        for staged in (False, True):
            server = session = ServerSession(
                store=ShardedKeyValueStore(weights, num_shards=2),
                optimizer=SGD(0.1),
                policy=make_policy("asp"),
            )
            session.dispatch(ServerEvent("w0", "join"))
            if staged:
                request = PushRequest("w0", gradients, base_version=0, timestamp=0.0)
                response = session.finish_push(request, session.apply_push(request))
            else:
                response = session.dispatch(ServerEvent("w0", "push", header, {"named": gradients}))
            assert (response.new_version, response.staleness) == (1, 0)
            assert server.pushes_handled == 1
            outcomes.append((response, server.store.weights_snapshot()))
        (plain, plain_weights), (split, split_weights) = outcomes
        assert plain == split
        for name, value in plain_weights.items():
            assert np.array_equal(value, split_weights[name])


class TestRestore:
    def test_restore_version_with_matching_shards(self):
        store = ShardedKeyValueStore(make_arrays(), num_shards=3)
        store.restore_version(9, shard_versions=[4, 3, 2])
        assert store.version == 9
        assert store.shard_versions == [4, 3, 2]

    def test_restore_version_mismatched_layout_falls_back(self):
        store = ShardedKeyValueStore(make_arrays(), num_shards=3)
        store.restore_version(9, shard_versions=[4, 3])  # from a 2-shard store
        assert store.version == 9
        assert store.shard_versions == [9, 9, 9]

    def test_restore_marks_everything_dirty(self):
        weights = make_arrays()
        store = ShardedKeyValueStore(weights, num_shards=2)
        store.restore_version(5)
        delta = store.pull(known_version=4)
        assert set(delta.weights) == set(store.parameter_names)
        assert [payload.shard for payload in delta.flat_weights] == [0, 1]
        assert delta.wire_nbytes == store.nbytes
        assert delta.version == 5
        assert store.pull(known_version=5).wire_nbytes == 0
