"""Tests for the shared-memory store layer (repro.ps.shm).

Everything here runs in one process: the cross-process lease protocol is
pure shared-state arithmetic, so a writer store and a reader client attached
to the same segments exercise it fully without spawning children (the
multi-process integration lives in test_process_runtime.py).
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.optim.sgd import SGD
from repro.ps.shm import (
    SharedFlatStore,
    SharedSegment,
    ShmStoreClient,
    create_shared_store,
)

CTX = multiprocessing.get_context()


def leaked_segments() -> list[str]:
    """Names of repro shared-memory segments currently present."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir("/dev/shm") if name.startswith("repro-")]


@pytest.fixture()
def handle():
    made = create_shared_store(
        initial_weights={
            "a": np.array([1.0, 2.0, 3.0]),
            "b": np.array([[4.0, 5.0], [6.0, 7.0]]),
        },
        initial_buffers={"running": np.array([0.5])},
        num_shards=2,
        slots=3,
        context=CTX,
        grad_mailboxes=0,
    )
    try:
        yield made
    finally:
        made.unlink_all()


class TestSharedSegment:
    def test_create_attach_roundtrip(self):
        segment = SharedSegment.create(64)
        try:
            view = segment.ndarray(np.float64, 8)
            view[:] = np.arange(8)
            other = SharedSegment.attach(segment.name)
            np.testing.assert_array_equal(other.ndarray(np.float64, 8), np.arange(8))
            del view
            other.close()
        finally:
            segment.close()
            segment.unlink()

    def test_unlink_is_idempotent_and_tolerant(self):
        segment = SharedSegment.create(8)
        segment.close()
        segment.unlink()
        segment.unlink()  # second unlink: no error
        SharedSegment.unlink_by_name(segment.name)  # already gone: no error
        with pytest.raises(FileNotFoundError):
            SharedSegment.attach(segment.name)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SharedSegment.create(0)


class TestCreateSharedStore:
    def test_initial_state_visible_through_store(self, handle):
        store = SharedFlatStore(handle)
        state = store.state_views()
        np.testing.assert_array_equal(state["a"], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(state["b"], [[4.0, 5.0], [6.0, 7.0]])
        np.testing.assert_array_equal(state["running"], [0.5])
        assert store.version == 0
        assert store.num_shards == 2
        assert sorted(store.parameter_names) == ["a", "b"]

    def test_weight_buffer_name_overlap_rejected(self):
        with pytest.raises(ValueError, match="both weight and buffer"):
            create_shared_store(
                initial_weights={"x": np.ones(2)},
                initial_buffers={"x": np.ones(2)},
                slots=2,
                context=CTX,
            )

    def test_needs_at_least_two_slots(self):
        with pytest.raises(ValueError, match="slots"):
            create_shared_store(
                initial_weights={"x": np.ones(2)}, slots=1, context=CTX
            )

    def test_float32_dtype_respected(self):
        made = create_shared_store(
            initial_weights={"x": np.ones(4)}, dtype="float32", slots=2, context=CTX
        )
        try:
            store = SharedFlatStore(made)
            assert store.dtype == np.float32
            assert store.nbytes == 4 * 4
        finally:
            made.unlink_all()

    def test_creation_failure_cleans_partial_segments(self):
        before = set(leaked_segments())
        with pytest.raises(ValueError):
            create_shared_store(initial_weights={}, slots=2, context=CTX)
        assert set(leaked_segments()) == before


class TestApplyGradients:
    def test_flat_gradients_sgd_update(self, handle):
        store = SharedFlatStore(handle)
        optimizer = SGD(learning_rate=0.1, momentum=0.0)
        flat = {
            shard_index: np.ones(
                dict(store.flat_layouts)[shard_index][-1].hi, dtype=np.float64
            )
            for shard_index, segments in store.flat_layouts
            if segments
        }
        version = store.apply_gradients({}, optimizer, scale=0.5, flat_gradients=flat)
        assert version == 1
        assert store.version == 1
        state = store.state_views()
        np.testing.assert_allclose(state["a"], np.array([1.0, 2.0, 3.0]) - 0.05)
        np.testing.assert_allclose(
            state["b"], np.array([[4.0, 5.0], [6.0, 7.0]]) - 0.05
        )
        # Buffers are untouched by gradient application.
        np.testing.assert_array_equal(state["running"], [0.5])

    def test_named_gradients_routed_per_shard(self, handle):
        store = SharedFlatStore(handle)
        optimizer = SGD(learning_rate=0.1, momentum=0.0)
        store.apply_gradients(
            {"a": np.full(3, 2.0), "b": np.full((2, 2), 2.0)}, optimizer
        )
        state = store.state_views()
        np.testing.assert_allclose(state["a"], np.array([1.0, 2.0, 3.0]) - 0.2)

    def test_unknown_gradient_name_rejected(self, handle):
        store = SharedFlatStore(handle)
        with pytest.raises(KeyError, match="unknown parameters"):
            store.apply_gradients({"nope": np.ones(3)}, SGD(learning_rate=0.1))

    def test_push_without_any_gradients_rejected(self, handle):
        store = SharedFlatStore(handle)
        with pytest.raises(ValueError, match="neither"):
            store.apply_gradients({}, SGD(learning_rate=0.1))

    def test_reader_attachment_cannot_mutate(self, handle):
        reader = SharedFlatStore(handle, writer=False)
        with pytest.raises(RuntimeError, match="read-only"):
            reader.apply_gradients({"a": np.ones(3)}, SGD(learning_rate=0.1))
        with pytest.raises(RuntimeError, match="read-only"):
            reader.update_buffers({"running": np.zeros(1)})


class TestBuffers:
    def test_update_buffers_writes_through(self, handle):
        store = SharedFlatStore(handle)
        store.update_buffers({"running": np.array([2.5])})
        np.testing.assert_array_equal(store.state_views()["running"], [2.5])

    def test_unknown_buffer_rejected(self, handle):
        store = SharedFlatStore(handle)
        with pytest.raises(KeyError, match="unknown entries"):
            store.update_buffers({"nope": np.zeros(1)})


class TestCrossProcessCow:
    """The slot-based lease protocol, exercised writer-vs-client in process."""

    def test_leased_snapshot_survives_update(self, handle):
        store = SharedFlatStore(handle)
        client = ShmStoreClient(handle)
        reply = client.pull_reply()
        before = {
            payload.shard: payload.buffer.copy() for payload in reply.flat_weights
        }
        flat = {
            index: np.ones(segments[-1].hi)
            for index, segments in store.flat_layouts
            if segments
        }
        store.apply_gradients({}, SGD(learning_rate=1.0, momentum=0.0), flat_gradients=flat)
        # The leased views still observe exactly the pre-update snapshot.
        for payload in reply.flat_weights:
            np.testing.assert_array_equal(payload.buffer, before[payload.shard])
        reply.release()
        assert store.cow_fallbacks == 0

    def test_release_makes_next_update_copy_free(self, handle):
        store = SharedFlatStore(handle)
        client = ShmStoreClient(handle)
        reply = client.pull_reply()
        reply.release()
        slots_before = [shard.current_slot for shard in store._shards]
        flat = {
            index: np.ones(segments[-1].hi)
            for index, segments in store.flat_layouts
            if segments
        }
        store.apply_gradients({}, SGD(learning_rate=0.1), flat_gradients=flat)
        # No outstanding lease -> the update mutated in place, no slot moved.
        assert [shard.current_slot for shard in store._shards] == slots_before

    def test_client_skips_unchanged_shards(self, handle):
        store = SharedFlatStore(handle)
        client = ShmStoreClient(handle)
        first = client.pull_reply()
        assert len(first.flat_weights) == 2  # both shards are news on first pull
        first.release()
        second = client.pull_reply()
        assert second.flat_weights == ()  # nothing changed since
        second.release()
        store.update_buffers({"running": np.array([9.0])})
        third = client.pull_reply()
        # Only the shard holding the buffer entry was dirtied.
        assert len(third.flat_weights) <= 1
        third.release()

    def test_exhausted_slots_fall_back_in_place(self):
        made = create_shared_store(
            initial_weights={"x": np.ones(4)}, slots=2, context=CTX
        )
        try:
            store = SharedFlatStore(made)
            shard = store._shards[0]
            optimizer = SGD(learning_rate=0.1, momentum=0.0)
            flat = {0: np.ones(4)}
            with shard.lock:
                shard.lease_current()  # pin slot 0 (never released: a "crash")
            store.apply_gradients({}, optimizer, flat_gradients=flat)  # moves to slot 1
            with shard.lock:
                shard.lease_current()  # pin slot 1 too
            store.apply_gradients({}, optimizer, flat_gradients=flat)
            assert store.cow_fallbacks == 1  # no free slot: mutated in place
        finally:
            made.unlink_all()

    def test_leased_state_releases_on_exit(self, handle):
        store = SharedFlatStore(handle)
        with store.leased_state() as views:
            assert set(views) == {"a", "b", "running"}
            assert all(shard.leased for shard in store._shards)
        assert not any(shard.leased for shard in store._shards)


class TestCleanup:
    def test_no_mailboxes_means_no_gradient_segments(self):
        # How callers that push nothing through shared memory create a store.
        made = create_shared_store(
            initial_weights={"x": np.ones(4)}, slots=2, context=CTX, grad_mailboxes=0
        )
        try:
            assert made.grad_segments == ()
            assert len(made.segment_names) == 1 + 1  # header + one shard
        finally:
            made.unlink_all()

    def test_unlink_all_removes_every_segment(self):
        made = create_shared_store(
            initial_weights={"x": np.ones(4)},
            slots=2,
            context=CTX,
            grad_mailboxes=2,
        )
        names = made.segment_names
        assert len(names) == 1 + 1 + 2  # header + one shard + two mailboxes
        for name in names:
            SharedSegment.attach(name).close()  # all exist
        made.unlink_all()
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedSegment.attach(name)
        made.unlink_all()  # idempotent
