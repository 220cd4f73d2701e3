"""Tests for the key-value store and the parameter server.

Every test runs against two shard counts of the one store — a monolithic
one-shard store and a two-shard ``ShardedKeyValueStore`` — via the
parametrized ``store_factory`` fixture, verifying that sharding is a drop-in
change on the whole server surface.
"""

import numpy as np
import pytest

from repro.core.factory import make_policy
from repro.optim.sgd import SGD
from repro.ps.server import ParameterServer
from repro.ps.session import ServerSession
from repro.ps.sharding import ShardedKeyValueStore, make_store


@pytest.fixture(params=["monolithic", "sharded"])
def store_factory(request):
    def factory(initial_weights=None, initial_buffers="default", **kwargs):
        if initial_weights is None:
            initial_weights = {"w": np.array([1.0, 1.0]), "b": np.array([0.0])}
        if initial_buffers == "default":
            initial_buffers = {"running_mean": np.array([0.5])}
        if request.param == "sharded":
            return ShardedKeyValueStore(
                initial_weights, initial_buffers, num_shards=2, **kwargs
            )
        return make_store(initial_weights, initial_buffers, **kwargs)

    factory.layout = request.param
    return factory


@pytest.fixture
def make_server(store_factory):
    def factory(paradigm="asp", num_workers=2, **kwargs):
        server = ParameterServer(
            store=store_factory(),
            optimizer=SGD(learning_rate=0.1),
            policy=make_policy(paradigm, **kwargs),
        )
        for index in range(num_workers):
            server.register_worker(f"w{index}")
        return ServerSession(server, server.worker_ids)

    return factory


def push(session, worker_id, gradients=None, base_version=None, timestamp=0.0, **extra):
    store = session.server.store
    header = {
        "base_version": store.version if base_version is None else base_version,
        "timestamp": timestamp,
    }
    return session.push(
        worker_id, header, named=gradients or {"w": np.array([1.0, 0.0])}, **extra
    )


class TestKeyValueStore:
    def test_snapshot_is_a_copy(self, store_factory):
        store = store_factory()
        snapshot = store.weights_snapshot()
        snapshot["w"][0] = 99.0
        assert store.weights_snapshot()["w"][0] == 1.0

    def test_apply_gradients_updates_and_versions(self, store_factory):
        store = store_factory()
        version = store.apply_gradients({"w": np.array([1.0, 0.0])}, SGD(0.1))
        assert version == 1
        assert np.allclose(store.weights_snapshot()["w"], [0.9, 1.0])

    def test_unknown_gradient_rejected(self, store_factory):
        store = store_factory()
        with pytest.raises(KeyError):
            store.apply_gradients({"unknown": np.zeros(1)}, SGD(0.1))

    def test_buffers_updated_by_overwrite(self, store_factory):
        store = store_factory()
        store.update_buffers({"running_mean": np.array([2.0])})
        assert store.buffers_snapshot()["running_mean"][0] == 2.0
        with pytest.raises(ValueError):
            store.update_buffers({"running_mean": np.zeros(3)})

    def test_unknown_buffer_rejected(self, store_factory):
        store = store_factory()
        with pytest.raises(KeyError):
            store.update_buffers({"brand_new": np.zeros(1)})

    def test_full_state_combines_weights_and_buffers(self, store_factory):
        store = store_factory()
        state = store.full_state()
        assert set(state) == {"w", "b", "running_mean"}

    def test_counts_and_bytes(self, store_factory):
        store = store_factory()
        assert store.num_parameters == 3
        assert store.nbytes == 4 * 8
        assert store.parameter_names == ["w", "b"]

    def test_float32_dtype_halves_payload(self, store_factory):
        store = store_factory(dtype="float32")
        assert store.dtype == np.float32
        assert store.nbytes == 4 * 4
        store.apply_gradients({"w": np.array([1.0, 0.0])}, SGD(0.1))
        assert store.weights_snapshot()["w"].dtype == np.float32
        assert store.pull().weights["w"].dtype == np.float32

    def test_invalid_dtype_rejected(self, store_factory):
        with pytest.raises(ValueError):
            store_factory(dtype="int32")

    def test_overwrite_weights_validation(self, store_factory):
        store = store_factory()
        store.overwrite_weights({"w": np.array([5.0, 5.0])})
        assert np.allclose(store.weights_snapshot()["w"], 5.0)
        with pytest.raises(KeyError):
            store.overwrite_weights({"zzz": np.zeros(1)})
        with pytest.raises(ValueError):
            store.overwrite_weights({"w": np.zeros(3)})

    def test_pull_carries_full_model_by_default(self, store_factory):
        store = store_factory()
        reply = store.pull()
        assert set(reply.weights) == {"w", "b"}
        assert set(reply.buffers) == {"running_mean"}
        assert reply.version == 0
        assert reply.wire_nbytes == store.nbytes

    def test_restore_version(self, store_factory):
        store = store_factory()
        store.restore_version(41)
        assert store.version == 41
        store.apply_gradients({"w": np.array([1.0, 0.0])}, SGD(0.1))
        assert store.version == 42
        with pytest.raises(ValueError):
            store.restore_version(-1)

    def test_empty_weights_rejected(self, store_factory):
        with pytest.raises(ValueError):
            store_factory(initial_weights={})


class TestParameterServer:
    def test_registration_validation(self, make_server):
        session = make_server()
        with pytest.raises(ValueError):
            session.server.register_worker("w0")
        with pytest.raises(KeyError):
            push(session, "stranger")

    def test_push_applies_scaled_gradient(self, make_server):
        session = make_server(num_workers=2)
        push(session, "w0")
        # Default gradient scale is 1/num_workers = 0.5, learning rate 0.1.
        assert np.allclose(session.server.store.weights_snapshot()["w"], [1.0 - 0.05, 1.0])

    def test_explicit_gradient_scale(self, store_factory):
        server = ParameterServer(
            store=store_factory(),
            optimizer=SGD(learning_rate=0.1),
            policy=make_policy("asp"),
            gradient_scale=1.0,
        )
        server.register_worker("w0")
        push(ServerSession(server, ["w0"]), "w0")
        assert np.allclose(server.store.weights_snapshot()["w"], [0.9, 1.0])

    def test_staleness_measured_against_base_version(self, make_server):
        session = make_server(num_workers=2)
        push(session, "w0", base_version=0)
        response = push(session, "w1", base_version=0)
        assert response.staleness == 1
        summary = session.server.staleness_tracker.summary()
        assert summary.maximum == 1

    def test_future_base_version_rejected(self, make_server):
        session = make_server()
        with pytest.raises(ValueError):
            push(session, "w0", base_version=5)

    def test_pull_returns_current_version(self, make_server):
        session = make_server()
        assert session.reply("w0", welcome=True).version == 0
        push(session, "w0")
        assert session.reply("w0").pull.version == 1

    def test_bsp_push_reports_released_workers(self, make_server):
        session = make_server(paradigm="bsp", num_workers=2)
        first = push(session, "w0", timestamp=1.0)
        assert not first.release_now
        second = push(session, "w1", timestamp=2.0)
        assert second.release_now
        assert second.released_workers == ("w0",)

    def test_learning_rate_schedule_progress(self, store_factory):
        from repro.optim.schedules import MultiStepSchedule

        server = ParameterServer(
            store=store_factory(),
            optimizer=SGD(learning_rate=0.05),
            policy=make_policy("asp"),
            learning_rate_schedule=MultiStepSchedule(0.05, milestones=(10,), decay=0.1),
        )
        server.register_worker("w0")
        server.set_progress(5)
        assert server.optimizer.learning_rate == pytest.approx(0.05)
        server.set_progress(15)
        assert server.optimizer.learning_rate == pytest.approx(0.005)

    def test_buffers_propagated_from_push(self, make_server):
        session = make_server()
        push(
            session, "w0", gradients={"w": np.zeros(2)}, base_version=0,
            buffers={"running_mean": np.array([3.0])},
        )
        welcome = session.reply("w0", welcome=True)
        assert welcome.pull.buffers["running_mean"][0] == 3.0

    def test_statistics_contains_policy_and_staleness(self, make_server):
        session = make_server(paradigm="ssp", staleness=2)
        push(session, "w0")
        stats = session.server.statistics()
        assert stats["paradigm"] == "ssp"
        assert stats["store_version"] == 1
        assert stats["update_staleness"].count == 1
        assert session.server.pushes_handled == 1

    def test_delta_pull_through_server(self, make_server, store_factory):
        session = make_server(num_workers=2)
        push(session, "w0", base_version=0)
        ok = session.reply("w0")  # the delta base is the push's base, 0
        reply = ok.pull
        assert reply.version == 1
        # Every store resends the shards that moved since the base: ``w``'s
        # shard, which on one shard is the whole model.
        assert (ok.kind, ok.reason) == ("delta", None)
        if store_factory.layout == "sharded":
            assert set(reply.weights) == {"w"}  # ``b`` lives on the other shard
        else:
            assert set(reply.weights) == {"w", "b"}
