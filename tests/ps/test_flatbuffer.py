"""Tests for the packed flat-buffer hot path.

Covers the :mod:`repro.ps.flatbuffer` layer itself (layout, views,
copy-on-write, run packing), the fused optimizer path, and the contracts
the ported stores must keep: zero-copy read-only pulls on both layouts,
one-buffer-per-shard full pulls, the empty-delta fast path, and —
crucially — bit-for-bit parity between the flat path and the classic
dict-of-arrays path through push, pull and checkpoint round-trips.
"""

import numpy as np
import pytest

from repro.core.factory import make_policy
from repro.optim.sgd import SGD
from repro.ps.aggregation import make_aggregator
from repro.ps.checkpoint import restore_into, save_checkpoint
from repro.ps.compression import decode_shard, make_codec
from repro.ps.faults import FaultInjector, parse_fault_plan
from repro.ps.flatbuffer import FlatLayout, FlatShard
from repro.ps.messages import PushRequest
from repro.ps.session import ServerEvent, ServerSession
from repro.ps.sharding import ShardedKeyValueStore, make_store
from repro.utils.rng import RngStream


def make_arrays(num=6, seed=0):
    rng = np.random.default_rng(seed)
    return {f"layer{i}.weight": rng.normal(size=(3, i + 1)) for i in range(num)}


@pytest.fixture(params=["monolithic", "sharded"])
def any_store(request):
    def factory(weights=None, buffers=None, **kwargs):
        weights = weights if weights is not None else make_arrays()
        num_shards = 1 if request.param == "monolithic" else 3
        return make_store(weights, buffers, num_shards=num_shards, **kwargs)

    factory.layout = request.param
    return factory


class TestFlatLayout:
    def test_weights_precede_buffers_contiguously(self):
        layout = FlatLayout(
            {"a": (2, 3), "b": (4,)}, {"stat": (5,)}
        )
        a, b, stat = layout.segment("a"), layout.segment("b"), layout.segment("stat")
        assert (a.lo, a.hi) == (0, 6)
        assert (b.lo, b.hi) == (6, 10)
        assert layout.weights_end == 10
        assert (stat.lo, stat.hi) == (10, 15)
        assert layout.size == 15
        assert layout.weight_names == ("a", "b")
        assert layout.buffer_names == ("stat",)

    def test_scalar_shapes_occupy_one_slot(self):
        layout = FlatLayout({"s": ()})
        assert layout.segment("s").size == 1

    def test_name_overlap_rejected(self):
        with pytest.raises(ValueError):
            FlatLayout({"x": (2,)}, {"x": (2,)})


class TestFlatShard:
    def test_views_are_read_only_and_zero_copy(self):
        weights = make_arrays()
        shard = FlatShard(weights)
        name = next(iter(weights))
        view = shard.view(name)
        assert np.array_equal(view, weights[name])
        assert view.base is not None  # a view, not a copy
        with pytest.raises(ValueError):
            view[0, 0] = 1.0

    def test_flat_weights_view_is_single_slice(self):
        weights = make_arrays()
        shard = FlatShard(weights)
        block = shard.flat_weights_view()
        assert block.ndim == 1
        assert block.size == sum(a.size for a in weights.values())
        with pytest.raises(ValueError):
            block[0] = 1.0

    def test_materialize_preserves_leased_views(self):
        weights = make_arrays()
        shard = FlatShard(weights)
        name = next(iter(weights))
        view = shard.view(name)
        before = view.copy()
        shard.lease()
        assert shard.leased
        shard.materialize()
        assert not shard.leased
        shard.write(name, np.zeros_like(weights[name]))
        assert np.array_equal(view, before)  # old snapshot untouched
        assert np.all(shard.view(name) == 0)

    def test_materialize_without_lease_keeps_buffer(self):
        shard = FlatShard(make_arrays())
        buffer = shard.buffer
        shard.materialize()
        assert shard.buffer is buffer  # no gratuitous copy

    def test_pack_runs_merges_adjacent_segments(self):
        weights = {"a": np.zeros((2, 2)), "b": np.zeros(3), "c": np.zeros(5)}
        shard = FlatShard(weights)
        # All three are layout-adjacent: one fused run.
        runs = shard.pack_runs({name: np.full(a.shape, 1.0) for name, a in weights.items()})
        assert len(runs) == 1
        lo, hi, grad = runs[0]
        assert (lo, hi) == (0, 12)
        assert np.all(grad == 1.0)
        # Leaving out the middle key splits the pack into two runs.
        runs = shard.pack_runs({"a": np.ones((2, 2)), "c": np.ones(5)})
        assert [(lo, hi) for lo, hi, _ in runs] == [(0, 4), (7, 12)]

    def test_pack_runs_validates_shapes(self):
        shard = FlatShard({"a": np.zeros((2, 2))})
        with pytest.raises(ValueError):
            shard.pack_runs({"a": np.zeros(3)})
        with pytest.raises(KeyError):
            shard.pack_runs({"zzz": np.zeros(3)})


class TestFusedOptimizerParity:
    """The fused flat path must be bit-for-bit equal to the dict path."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"momentum": 0.9},
            {"momentum": 0.9, "weight_decay": 1e-4},
            {"momentum": 0.9, "nesterov": True},
        ],
    )
    def test_step_flat_matches_step(self, dtype, options):
        weights = make_arrays()
        shard = FlatShard(weights, dtype=dtype)
        reference = {
            name: np.asarray(value, dtype=dtype).copy()
            for name, value in weights.items()
        }
        flat_opt = SGD(0.1, **options)
        dict_opt = SGD(0.1, **options)
        rng = np.random.default_rng(5)
        for _ in range(4):
            gradients = {
                name: rng.normal(size=a.shape) for name, a in weights.items()
            }
            flat_opt.step_flat([shard.make_update(gradients)], scale=0.5)
            dict_opt.step(reference, gradients, scale=0.5)
        for name in weights:
            assert np.array_equal(shard.view(name), reference[name]), name
        assert flat_opt.step_count == dict_opt.step_count == 4

    def test_velocity_checkpoint_roundtrip_between_paths(self):
        """Flat velocity exports per-name and reloads into either path."""
        weights = make_arrays()
        shard = FlatShard(weights)
        optimizer = SGD(0.1, momentum=0.9)
        gradients = {name: np.ones(a.shape) for name, a in weights.items()}
        optimizer.step_flat([shard.make_update(gradients)])
        state = optimizer.state_dict()
        assert set(state["velocity"]) == set(weights)
        # A fresh optimizer restored from that state continues identically
        # on the dict path.
        restored = SGD(0.1, momentum=0.9)
        restored.load_state_dict(state)
        reference = {name: shard.view(name).copy() for name in weights}
        optimizer.step_flat([shard.make_update(gradients)])
        restored.step(reference, gradients)
        for name in weights:
            assert np.array_equal(shard.view(name), reference[name]), name


class TestStoreFlatParity:
    """Flat stores must reproduce the dict path bit-for-bit end to end."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_push_pull_checkpoint_roundtrip_matches_dict_path(self, tmp_path, dtype, any_store):
        weights = make_arrays()
        buffers = {"bn.mean": np.zeros(4), "bn.var": np.ones(4)}
        store = any_store(weights, buffers, dtype=dtype)
        optimizer = SGD(0.1, momentum=0.9, weight_decay=1e-4)
        # Dict-path reference: plain arrays updated by the dict optimizer.
        reference = {
            name: np.asarray(value, dtype=dtype).copy()
            for name, value in weights.items()
        }
        reference_opt = SGD(0.1, momentum=0.9, weight_decay=1e-4)
        rng = np.random.default_rng(9)
        for _ in range(5):
            gradients = {
                name: rng.normal(size=a.shape) for name, a in weights.items()
            }
            store.apply_gradients(gradients, optimizer, scale=0.5)
            reference_opt.step(reference, gradients, scale=0.5)

        pulled = store.pull()
        for name in weights:
            assert np.array_equal(pulled.weights[name], reference[name]), name
            assert pulled.weights[name].dtype == np.dtype(dtype)

        # Checkpoint → fresh store → bit-identical state and velocity.
        path = save_checkpoint(tmp_path / "ckpt", store, optimizer)
        fresh = any_store(weights, buffers, dtype=dtype)
        fresh_opt = SGD(0.1, momentum=0.9, weight_decay=1e-4)
        restore_into(path, fresh, fresh_opt)
        for name in weights:
            assert np.array_equal(
                fresh.weights_snapshot()[name], reference[name]
            ), name
        for name, velocity in optimizer.state_dict()["velocity"].items():
            assert np.array_equal(
                fresh_opt.state_dict()["velocity"][name], velocity
            ), name

    def test_partial_push_touches_only_named_parameters(self, any_store):
        weights = make_arrays()
        store = any_store(weights)
        names = store.parameter_names
        before = store.weights_snapshot()
        store.apply_gradients(
            {names[0]: np.ones(weights[names[0]].shape)}, SGD(0.1, momentum=0.9)
        )
        after = store.weights_snapshot()
        assert not np.array_equal(after[names[0]], before[names[0]])
        for name in names[1:]:
            assert np.array_equal(after[name], before[name]), name


class TestZeroCopyPulls:
    def test_pulled_views_are_read_only(self, any_store):
        store = any_store()
        reply = store.pull()
        for name, value in reply.weights.items():
            with pytest.raises(ValueError):
                value[...] = 0.0

    def test_pull_snapshot_survives_later_updates(self, any_store):
        weights = make_arrays()
        store = any_store(weights)
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

    def test_full_pull_carries_one_buffer_per_shard(self, any_store):
        weights = make_arrays()
        store = any_store(weights)
        reply = store.pull()
        expected_shards = 1 if any_store.layout == "monolithic" else store.num_shards
        payloads = reply.flat_weights
        assert 1 <= len(payloads) <= expected_shards
        total = sum(payload.buffer.size for payload in payloads)
        assert total == store.num_parameters
        for payload in payloads:
            assert payload.buffer.ndim == 1
            with pytest.raises(ValueError):
                payload.buffer[0] = 1.0
            # The layout describes exactly the buffer's contents.
            assert payload.layout[-1].hi == payload.buffer.size

    def test_delta_pull_carries_the_moved_shard_blocks(self):
        weights = make_arrays()
        store = ShardedKeyValueStore(weights, num_shards=2)
        assert store.pull(known_version=0).flat_weights == ()
        name = store.parameter_names[0]
        store.apply_gradients({name: np.ones(weights[name].shape)}, SGD(0.1))
        (payload,) = store.pull(known_version=0).flat_weights
        shard = store._shards[store.shard_of(name)]
        assert payload.shard == shard.index
        assert payload.buffer.tobytes() == shard.flat_weights_view().tobytes()


class TestViewPropertiesAndSnapshots:
    def test_weights_property_returns_stable_read_only_views(self, any_store):
        weights = make_arrays()
        store = any_store(weights)
        views = store.weights
        assert set(views) == set(weights)
        name = next(iter(views))
        with pytest.raises(ValueError):
            views[name][...] = 0.0
        before = {n: np.array(v) for n, v in views.items()}
        store.apply_gradients(
            {n: np.ones(a.shape) for n, a in weights.items()}, SGD(0.5)
        )
        # Copy-on-write: the views keep the snapshot they were taken from.
        for n in views:
            assert np.array_equal(views[n], before[n]), n

    def test_buffers_property_and_snapshot(self, any_store):
        weights = make_arrays(num=2)
        buffers = {"bn.mean": np.full(3, 2.0)}
        store = any_store(weights, buffers)
        assert np.array_equal(store.buffers["bn.mean"], np.full(3, 2.0))
        with pytest.raises(ValueError):
            store.buffers["bn.mean"][0] = 0.0
        copy = store.snapshot()
        assert set(copy) == set(weights) | set(buffers)
        copy["bn.mean"][0] = 99.0  # snapshot is writable and independent
        assert store.buffers["bn.mean"][0] == 2.0

    def test_state_views_cover_full_state(self, any_store):
        weights = make_arrays(num=2)
        buffers = {"bn.mean": np.zeros(3)}
        store = any_store(weights, buffers)
        views = store.state_views()
        assert set(views) == set(weights) | set(buffers)


class TestEmptyDeltaFastPath:
    def test_pull_at_tip_is_empty_and_takes_no_lease(self):
        weights = make_arrays()
        store = ShardedKeyValueStore(weights, num_shards=2)
        store.apply_gradients(
            {name: np.ones(a.shape) for name, a in weights.items()}, SGD(0.1)
        )
        reply = store.pull(known_version=store.version)
        assert not reply.weights and not reply.buffers and not reply.flat_weights
        assert reply.wire_nbytes == 0
        # No lease taken: the next push must not pay a copy-on-write copy.
        buffers_before = [shard.flat.buffer for shard in store._shards]
        assert all(not shard.flat.leased for shard in store._shards)
        store.apply_gradients(
            {name: np.ones(a.shape) for name, a in weights.items()}, SGD(0.1)
        )
        for shard, before in zip(store._shards, buffers_before):
            assert shard.flat.buffer is before

    def test_pull_with_views_out_leases_only_contributing_shards(self):
        weights = make_arrays()
        store = ShardedKeyValueStore(weights, num_shards=4)
        name = store.parameter_names[0]
        store.apply_gradients({name: np.ones(weights[name].shape)}, SGD(0.1))
        store.pull(known_version=0)
        target = store.shard_of(name)
        for shard in store._shards:
            assert shard.flat.leased == (shard.index == target)


class TestPackedReplicaLoading:
    def test_flat_payload_load_equals_per_name_load(self, any_store):
        from repro.data.dataset import ArrayDataset
        from repro.data.loader import MiniBatchLoader
        from repro.models import mlp
        from repro.nn.losses import SoftmaxCrossEntropy
        from repro.ps.worker import Worker

        rng = np.random.default_rng(0)
        dataset = ArrayDataset(
            rng.normal(size=(32, 12)).astype(np.float64),
            rng.integers(0, 3, size=32),
        )

        def build_worker(worker_id):
            model = mlp(
                input_dim=12, hidden_dims=(8,), num_classes=3,
                rng=np.random.default_rng(1),
            )
            loader = MiniBatchLoader(
                dataset, batch_size=8, rng=np.random.default_rng(2)
            )
            return Worker(worker_id, model, loader, SoftmaxCrossEntropy())

        packed, plain = build_worker("packed"), build_worker("plain")
        store = any_store(
            {name: p.data for name, p in packed.model.named_parameters()}
        )
        store.apply_gradients(
            {
                name: np.full(p.shape, 0.25)
                for name, p in packed.model.named_parameters()
            },
            SGD(0.1),
        )

        packed.attach_flat_layout(store.flat_layouts)
        reply = store.pull()
        assert reply.flat_weights  # the fast path is actually exercised
        packed.load_reply(reply)
        plain.load_weights(reply.weights, reply.version)
        assert packed.local_version == plain.local_version == store.version
        for (name, a), (_, b) in zip(
            packed.model.named_parameters(), plain.model.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), name

        # The packed replica still trains: gradients flow through the views.
        computation = packed.compute_gradients()
        assert set(computation.gradients) == {
            name for name, _ in packed.model.named_parameters()
        }
        assert np.isfinite(computation.loss)

    def test_delta_reply_loads_the_moved_shard_block(self):
        from repro.data.dataset import ArrayDataset
        from repro.data.loader import MiniBatchLoader
        from repro.models import mlp
        from repro.nn.losses import SoftmaxCrossEntropy
        from repro.ps.worker import Worker

        rng = np.random.default_rng(0)
        dataset = ArrayDataset(
            rng.normal(size=(16, 12)), rng.integers(0, 3, size=16)
        )
        model = mlp(
            input_dim=12, hidden_dims=(8,), num_classes=3,
            rng=np.random.default_rng(1),
        )
        worker = Worker(
            "w0",
            model,
            MiniBatchLoader(dataset, batch_size=8, rng=np.random.default_rng(2)),
            SoftmaxCrossEntropy(),
        )
        store = ShardedKeyValueStore(
            {name: p.data for name, p in model.named_parameters()}, num_shards=2
        )
        worker.attach_flat_layout(store.flat_layouts)
        worker.load_reply(store.pull())
        name = store.parameter_names[0]
        store.apply_gradients(
            {name: np.ones(dict(model.named_parameters())[name].shape)}, SGD(0.1)
        )
        delta = store.pull(known_version=worker.local_version)
        assert [payload.shard for payload in delta.flat_weights] == [store.shard_of(name)]
        worker.load_reply(delta)
        assert worker.local_version == store.version
        assert np.array_equal(
            dict(model.named_parameters())[name].data,
            store.weights_snapshot()[name],
        )

    def test_attach_rejects_foreign_layouts(self):
        from repro.data.dataset import ArrayDataset
        from repro.data.loader import MiniBatchLoader
        from repro.models import mlp
        from repro.nn.losses import SoftmaxCrossEntropy
        from repro.ps.worker import Worker

        rng = np.random.default_rng(0)
        dataset = ArrayDataset(
            rng.normal(size=(16, 12)), rng.integers(0, 3, size=16)
        )
        model = mlp(
            input_dim=12, hidden_dims=(8,), num_classes=3,
            rng=np.random.default_rng(1),
        )
        worker = Worker(
            "w0",
            model,
            MiniBatchLoader(dataset, batch_size=8, rng=np.random.default_rng(2)),
            SoftmaxCrossEntropy(),
        )
        stranger = make_store({"nope": np.zeros(3)})
        with pytest.raises(KeyError):
            worker.attach_flat_layout(stranger.flat_layouts)


class TestLeaseRelease:
    def test_consumed_reply_releases_lease_and_skips_cow(self, any_store):
        weights = make_arrays()
        store = any_store(weights)
        reply = store.pull()
        reply.release()
        buffers_before = [shard.flat.buffer for shard in store._shards]
        store.apply_gradients(
            {name: np.ones(a.shape) for name, a in weights.items()}, SGD(0.1)
        )
        buffers_after = [shard.flat.buffer for shard in store._shards]
        # No outstanding lease: the push mutated in place, no COW copy.
        for before, after in zip(buffers_before, buffers_after):
            assert after is before

    def test_release_is_idempotent_and_respects_other_holders(self, any_store):
        weights = make_arrays()
        store = any_store(weights)
        consumed = store.pull()
        held = store.pull()
        snapshot = {name: np.array(value) for name, value in held.weights.items()}
        consumed.release()
        consumed.release()  # double release must not strip the second lease
        store.apply_gradients(
            {name: np.ones(a.shape) for name, a in weights.items()}, SGD(0.5)
        )
        for name, value in held.weights.items():
            assert np.array_equal(value, snapshot[name]), name

    def test_worker_load_reply_releases(self):
        from repro.data.dataset import ArrayDataset
        from repro.data.loader import MiniBatchLoader
        from repro.models import mlp
        from repro.nn.losses import SoftmaxCrossEntropy
        from repro.ps.worker import Worker

        rng = np.random.default_rng(0)
        dataset = ArrayDataset(
            rng.normal(size=(16, 12)), rng.integers(0, 3, size=16)
        )
        model = mlp(
            input_dim=12, hidden_dims=(8,), num_classes=3,
            rng=np.random.default_rng(1),
        )
        worker = Worker(
            "w0",
            model,
            MiniBatchLoader(dataset, batch_size=8, rng=np.random.default_rng(2)),
            SoftmaxCrossEntropy(),
        )
        store = ShardedKeyValueStore(
            {name: p.data for name, p in model.named_parameters()}, num_shards=2
        )
        worker.attach_flat_layout(store.flat_layouts)
        worker.load_reply(store.pull())
        assert all(not shard.flat.leased for shard in store._shards)


class TestPackedGradientPush:
    """A packed worker's push must match a plain worker's bit-for-bit."""

    def test_packed_and_plain_workers_train_identically(self):
        from repro.core.factory import make_policy
        from repro.data.dataset import ArrayDataset
        from repro.data.loader import MiniBatchLoader
        from repro.models import mlp
        from repro.nn.losses import SoftmaxCrossEntropy
        from repro.ps.worker import Worker

        rng = np.random.default_rng(0)
        dataset = ArrayDataset(
            rng.normal(size=(48, 12)), rng.integers(0, 3, size=48)
        )

        def build(worker_id):
            model = mlp(
                input_dim=12, hidden_dims=(8,), num_classes=3,
                rng=np.random.default_rng(1),
            )
            loader = MiniBatchLoader(
                dataset, batch_size=8, rng=np.random.default_rng(2)
            )
            worker = Worker(worker_id, model, loader, SoftmaxCrossEntropy())
            store = ShardedKeyValueStore(
                {name: p.data for name, p in model.named_parameters()},
                num_shards=2,
            )
            server = ServerSession(
                store=store,
                optimizer=SGD(0.1, momentum=0.9, weight_decay=1e-4),
                policy=make_policy("asp"),
                gradient_scale=1.0,
            )
            server.dispatch(ServerEvent(worker_id, "join"))
            return worker, server

        packed, packed_session = build("packed")
        plain, plain_session = build("plain")
        packed.attach_flat_layout(packed_session.store.flat_layouts)

        for _ in range(3):
            for worker, session in ((packed, packed_session), (plain, plain_session)):
                computation = worker.compute_gradients()
                header = {"base_version": computation.base_version, "timestamp": 0.0}
                gradients = {"named": computation.gradients, "flat": computation.flat_gradients}
                session.dispatch(ServerEvent(worker.worker_id, "push", header, gradients))
                worker.load_reply(session.reply(worker.worker_id).pull)
        assert packed.compute_gradients().flat_gradients is not None
        packed_state = packed_session.store.weights_snapshot()
        plain_state = plain_session.store.weights_snapshot()
        for name in packed_state:
            assert np.array_equal(packed_state[name], plain_state[name]), name


class TestDeltaPullThroughServer:
    def test_reply_at_the_version_tip_is_an_empty_delta(self):
        """A staged push leaves the store at its base: the OK is empty."""
        from repro.core.factory import make_policy
        from repro.ps.aggregation import make_aggregator
        store = ShardedKeyValueStore(make_arrays(), num_shards=2)
        session = ServerSession(
            store=store,
            optimizer=SGD(0.1),
            policy=make_policy("asp"),
            aggregator=make_aggregator("median"),
        )
        for worker_id in ("w0", "w1"):
            session.dispatch(ServerEvent(worker_id, "join"))
        flat = {shard: np.ones(segments[-1].hi) for shard, segments in store.flat_layouts}
        header = {"base_version": 0, "timestamp": 0.0}
        session.dispatch(ServerEvent("w0", "push", header, {"flat": flat}))
        ok = session.reply("w0")
        assert store.version == 0 and ok.kind == "delta"
        assert not ok.pull.weights and not ok.pull.flat_weights and ok.pull.wire_nbytes == 0
        assert session.pull_replies["delta_bytes"] == 0


class CountingSGD(SGD):
    """SGD that counts the runs its sparse kernel took."""

    sparse_calls = 0

    def _apply_sparse(self, *args):
        self.sparse_calls += 1
        super()._apply_sparse(*args)


class TestSparsePushes:
    """A sparse-coded push through ``ServerSession.apply_push``: applied
    as a sparse run where the update rule allows, densified everywhere else
    — either way the numbers of the dense decode applied densely.

    ``np.array_equal`` rather than byte equality where the sparse kernel
    ran: the dense kernel adds the zero gradient too, and IEEE
    ``-0.0 + 0.0`` is ``+0.0`` (tests/optim/test_sgd.py pins that case).
    """

    NUM_SHARDS = 4

    def server(self, dtype="float64", **options):
        store = make_store(make_arrays(num=8), num_shards=self.NUM_SHARDS, dtype=dtype)
        server = ServerSession(store, policy=make_policy("asp"), **options)
        server.dispatch(ServerEvent("worker-0", "join"))
        return server

    def pushes(self, server, codec, count=3):
        """``count`` coded pushes: as frames, and as their dense decode."""
        codec, rng = make_codec(codec), np.random.default_rng(3)
        for step in range(count):
            encoded = tuple(
                codec.encode(shard, rng.standard_normal(segments[-1].hi))
                for shard, segments in server.store.flat_layouts
            )
            assert {payload.scheme for payload in encoded} == {"sparse"}
            common = dict(worker_id="worker-0", gradients={}, base_version=step, timestamp=step)
            yield (
                PushRequest(**common, encoded_gradients=encoded),
                PushRequest(**common, flat_gradients={p.shard: decode_shard(p) for p in encoded}),
            )

    @staticmethod
    def state(server):
        weights = {name: view.copy() for name, view in server.store.weights.items()}
        return weights, server.optimizer.state_dict()["velocity"]

    @staticmethod
    def decode_pool(server):
        return server._decode_scratch

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("codec", ["topk:0.25", "significance:1.0", "significance:1e9"])
    def test_sparse_frames_are_applied_sparsely_to_every_shard(self, codec, dtype, momentum):
        optimizer = CountingSGD(0.1, momentum=momentum)
        sparse = self.server(dtype, optimizer=optimizer)
        dense = self.server(dtype, optimizer=SGD(0.1, momentum=momentum))
        for coded, decoded in self.pushes(sparse, codec):
            assert sparse.apply_push(coded).verbatim
            dense.apply_push(decoded)
        assert optimizer.sparse_calls == 3 * self.NUM_SHARDS
        assert self.decode_pool(sparse) == {}  # nothing densified: no scratch exists
        for got, expected in zip(self.state(sparse), self.state(dense)):
            assert got.keys() == expected.keys()
            for name in expected:
                assert got[name].dtype == expected[name].dtype == np.dtype(dtype)
                assert np.array_equal(got[name], expected[name]), name

    @pytest.mark.parametrize(
        "optimizer, aggregation",
        [
            ({"momentum": 0.9, "weight_decay": 1e-3}, None),
            ({"momentum": 0.9, "nesterov": True}, None),
            ({"momentum": 0.9}, "median"),
        ],
        ids=["weight_decay", "nesterov", "buffered"],
    )
    def test_what_cannot_run_sparsely_is_densified_first(self, optimizer, aggregation):
        def server():
            aggregator = make_aggregator(aggregation) if aggregation else None
            return self.server(optimizer=CountingSGD(0.1, **optimizer), aggregator=aggregator)

        sparse, dense = server(), server()
        for coded, decoded in self.pushes(sparse, "topk:0.25"):
            sparse.apply_push(coded)
            dense.apply_push(decoded)
        assert sparse.optimizer.sparse_calls == 0
        assert sorted(self.decode_pool(sparse)) == list(range(self.NUM_SHARDS))
        for got, expected in zip(self.state(sparse), self.state(dense)):
            for name in expected:
                assert got[name].tobytes() == expected[name].tobytes(), name

    def test_a_fault_injector_decides_on_a_dense_decode_and_honest_pushes_stay_sparse(self):
        plan = parse_fault_plan(
            [{"worker": 0, "kind": "byzantine", "mode": "sign_flip", "after_clock": 2}],
            (),
            ["worker-0"],
        )
        optimizer = CountingSGD(0.1, momentum=0.9)
        watched = self.server(
            optimizer=optimizer, fault_injector=FaultInjector(plan, RngStream(0))
        )
        plain = self.server(optimizer=SGD(0.1, momentum=0.9))
        first, second, third = (coded for coded, _ in self.pushes(watched, "topk:0.25"))
        for request in (first, second):
            assert watched.apply_push(request).verbatim
            plain.apply_push(request)
        # The kernel a mirror (which has no injector) will replay them with.
        assert optimizer.sparse_calls == 2 * self.NUM_SHARDS
        for got, expected in zip(self.state(watched), self.state(plain)):
            for name in expected:
                assert got[name].tobytes() == expected[name].tobytes(), name
        assert not watched.apply_push(third).verbatim  # corrupted: applied densely
        assert optimizer.sparse_calls == 2 * self.NUM_SHARDS
        assert sorted(self.decode_pool(watched)) == list(range(self.NUM_SHARDS))
