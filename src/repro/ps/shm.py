"""Shared-memory parameter storage for the multi-process runtime.

The thread-based runtime shares one address space, so the packed flat
buffers (:mod:`repro.ps.flatbuffer`) are visible to every worker for free.
The *process* runtime (:mod:`repro.ps.process_runtime`) has no shared heap —
but a packed shard is exactly one contiguous array, which is exactly the
shape :mod:`multiprocessing.shared_memory` serves.  This module puts each
shard's flat buffer in a named shared-memory segment so that

* **pulls stay zero-copy across process boundaries** — a worker maps the
  server's live buffer and copies it straight into its packed replica
  (one vectorized copy per shard, no pickling, no pipe transfer), and
* **pushes can stay zero-copy too** — each worker's packed gradient buffer
  may itself live in a shared segment (a *mailbox*), so the server applies
  the update by reading the worker's memory directly.

Three layers:

* :class:`SharedSegment` — segment lifecycle.  Creation, attachment (with
  the resource-tracker workaround described below), idempotent close and
  crash-safe unlink.
* :class:`SharedFlatShard` — one shard's packed buffer in a segment, with
  the **cross-process copy-on-write lease protocol**: the thread-level
  refcounted leases of :class:`~repro.ps.flatbuffer.FlatShard` generalized
  to lease counters that live in the segment itself.
* :class:`SharedFlatStore` — the store of :mod:`repro.ps.sharding`
  constructed over those shards (the server attaches as the one writer);
  :class:`ShmStoreClient` is a worker's read-only attachment of it.

Cross-process copy-on-write
---------------------------

A thread-level :class:`~repro.ps.flatbuffer.FlatShard` re-materializes a
leased buffer by *allocating a fresh copy* — impossible here, because every
attached process holds a fixed mapping.  Instead each shard's segment holds
``slots`` equally-sized copies of the packed buffer plus a small int64
header::

    header:  [ current_slot | mutation_counter | cow_fallbacks | lease(slot 0) ... lease(slot S-1) ]
    data:    [ slot 0 | slot 1 | ... | slot S-1 ]        (each = FlatLayout.size elements)

A reader (worker pull, server-side evaluation) *leases* the current slot —
increment its counter under the shard lock, copy outside the lock, decrement
— so the expensive copy never blocks the server.  A writer that finds the
current slot leased copies it into a lease-free slot and redirects
``current_slot`` there (:meth:`SharedFlatShard.materialize`): the readers
keep observing exactly the snapshot they leased, one ``memcpy`` per update
interval, identical in spirit to the thread-level protocol.  With
``slots >= readers + 2`` a free slot always exists; if crashed readers ever
pin every slot anyway, the writer falls back to mutating in place (counted
in ``cow_fallbacks``) rather than stalling training for a dead process.

Crash-safe unlink
-----------------

POSIX shared memory persists until explicitly unlinked, so a leaked segment
outlives the experiment.  Three lines of defence:

1. the creating process (the runtime's coordinator) unlinks every segment
   in a ``finally`` block — worker or server crashes cannot skip it;
2. creation registers with :mod:`multiprocessing.resource_tracker`, so even
   a hard-killed coordinator gets its segments reaped by the tracker.

Every attaching process here is a *child* of the coordinator and therefore
shares its resource-tracker daemon (POSIX fork and spawn both hand the
tracker fd down), whose registry is a name set — re-registration on attach
is a no-op and the single unlink balances it.  The notorious CPython
attach-side tracker bug (bpo-39959, where an attach-only process's private
tracker destroys segments on exit) only bites *unrelated* processes, which
this runtime never creates.

``tests/ps/test_process_runtime.py`` pins the no-leak guarantee down,
including for a worker killed mid-iteration.
"""

from __future__ import annotations

import os
import secrets
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.ps.flatbuffer import FlatLayout, FlatShard
from repro.ps.messages import PullReply
from repro.ps.sharding import (
    ShardedKeyValueStore,
    flat_payloads,
    normalize_store_dtype,
    partition_state,
)

__all__ = [
    "SharedSegment",
    "ShardSegmentSpec",
    "SharedStoreHandle",
    "SharedFlatShard",
    "SharedFlatStore",
    "ShmStoreClient",
    "create_shared_store",
]

#: int64 header slots that precede the per-slot lease counters.
_HEADER_FIXED = 3
_CURRENT_SLOT = 0
_MUTATIONS = 1
_COW_FALLBACKS = 2


class SharedSegment:
    """Lifecycle wrapper around one named shared-memory segment.

    Create with :meth:`create` (the owning process) or :meth:`attach`
    (every other process).  ``close`` drops this process's mapping;
    ``unlink`` destroys the segment system-wide.  Both are idempotent and
    swallow "already gone" errors, so cleanup paths can run unconditionally.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        """Wrap an already-open handle (use :meth:`create` / :meth:`attach`)."""
        self._shm: shared_memory.SharedMemory | None = shm
        self._owner = owner
        self.name = shm.name

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, size: int, name: str | None = None) -> "SharedSegment":
        """Create a new segment of ``size`` bytes (auto-named when ``name`` is None)."""
        if size <= 0:
            raise ValueError(f"segment size must be positive, got {size}")
        shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedSegment":
        """Attach to an existing segment by name (raises ``FileNotFoundError`` if gone)."""
        return cls(shared_memory.SharedMemory(name=name), owner=False)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Mapped size in bytes (0 once closed)."""
        return self._shm.size if self._shm is not None else 0

    def ndarray(self, dtype: np.dtype | str, count: int, offset: int = 0) -> np.ndarray:
        """A NumPy view of ``count`` elements of ``dtype`` starting at byte ``offset``."""
        if self._shm is None:
            raise ValueError(f"segment {self.name!r} is closed")
        return np.frombuffer(self._shm.buf, dtype=dtype, count=count, offset=offset)

    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        When NumPy views of the mapping are still alive — a worker exiting
        with its replica gradients bound to a shared mailbox — a real
        ``mmap`` teardown is impossible (``BufferError``).  The handle is
        then *forgotten* instead: the file descriptor is closed, the mmap
        object is left to the views that keep it alive, and the neutralized
        ``SharedMemory`` object stays silent at interpreter shutdown.  The
        process is about to exit either way; the segment itself is
        unaffected (destruction is :meth:`unlink`'s job, in the creator).
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        try:
            shm.close()
        except BufferError:
            try:
                if shm._fd >= 0:  # type: ignore[attr-defined]
                    os.close(shm._fd)  # type: ignore[attr-defined]
                    shm._fd = -1  # type: ignore[attr-defined]
                shm._buf = None  # type: ignore[attr-defined]
                shm._mmap = None  # type: ignore[attr-defined]
            except (AttributeError, OSError):  # pragma: no cover - CPython drift
                pass
        except OSError:  # pragma: no cover - already gone
            pass

    def unlink(self) -> None:
        """Destroy the segment system-wide (idempotent, tolerant of races)."""
        self.unlink_by_name(self.name)

    def __del__(self) -> None:
        # Route garbage collection through close(): it neutralizes the
        # handle even when live NumPy views pin the mapping, which keeps
        # SharedMemory.__del__ from raising BufferError at shutdown.
        self.close()

    @staticmethod
    def unlink_by_name(name: str) -> None:
        """Destroy a segment given only its name, tolerating absence.

        The crash-cleanup path: callers hold segment *names* (picklable)
        even when the objects that mapped them are gone with a dead process.
        """
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        try:
            segment.unlink()
        finally:
            segment.close()


@dataclass(frozen=True)
class ShardSegmentSpec:
    """Picklable description of one shard's segment, enough to attach anywhere.

    Child processes receive these (inside a :class:`SharedStoreHandle`) and
    rebuild the :class:`~repro.ps.flatbuffer.FlatLayout` locally — layouts
    are pure offset tables, cheap to reconstruct and impossible to share.
    """

    index: int
    segment_name: str
    weight_shapes: tuple[tuple[str, tuple[int, ...]], ...]
    buffer_shapes: tuple[tuple[str, tuple[int, ...]], ...]
    dtype: str
    slots: int

    def build_layout(self) -> FlatLayout:
        """Reconstruct the shard's offset table."""
        return FlatLayout(
            OrderedDict(self.weight_shapes), OrderedDict(self.buffer_shapes)
        )

    @property
    def header_count(self) -> int:
        """Number of int64 header entries (fixed fields + one lease per slot)."""
        return _HEADER_FIXED + self.slots

    @property
    def data_offset(self) -> int:
        """Byte offset of slot 0, 64-byte aligned past the header."""
        raw = self.header_count * np.dtype(np.int64).itemsize
        return (raw + 63) // 64 * 64

    def slot_nbytes(self, layout: FlatLayout) -> int:
        """Payload bytes of one slot."""
        return layout.size * np.dtype(self.dtype).itemsize

    def segment_nbytes(self, layout: FlatLayout) -> int:
        """Total segment size: header plus ``slots`` copies of the buffer."""
        return self.data_offset + self.slots * max(self.slot_nbytes(layout), 1)


@dataclass(frozen=True)
class SharedStoreHandle:
    """Everything a child process needs to attach to the shared store.

    Picklable (segment *names*, shapes, synchronization primitives created
    from the runtime's multiprocessing context) — passed to worker and
    server processes as a plain ``Process`` argument.  ``grad_segments``
    maps each worker index to the segment holding that worker's per-shard
    gradient mailboxes (none when the store was created without any).
    """

    header_segment: str
    shard_specs: tuple[ShardSegmentSpec, ...]
    shard_locks: tuple
    version_lock: object
    dtype: str
    grad_segments: tuple[str, ...] = ()

    @property
    def num_shards(self) -> int:
        """Number of shards (and shard segments)."""
        return len(self.shard_specs)

    @property
    def segment_names(self) -> list[str]:
        """Every segment name this store owns (for cleanup and leak checks)."""
        return [
            self.header_segment,
            *(spec.segment_name for spec in self.shard_specs),
            *self.grad_segments,
        ]

    def unlink_all(self) -> None:
        """Crash-safe cleanup: destroy every segment, tolerating absence."""
        for name in self.segment_names:
            SharedSegment.unlink_by_name(name)


class SharedFlatShard(FlatShard):
    """A :class:`~repro.ps.flatbuffer.FlatShard` whose buffer lives in shared memory.

    Reuses the packing machinery of the base class (views, gradient runs,
    :meth:`~repro.ps.flatbuffer.FlatShard.make_flat_update`, ...) unchanged
    — only storage and the copy-on-write protocol differ: the buffer is one
    of ``slots`` copies inside the segment, and the lease counters are int64
    fields in the segment header, shared by every attached process.

    Locking is *external*: the mutating process must hold ``self.lock``
    (the shard's ``multiprocessing.Lock`` from the store handle) around
    :meth:`materialize` + mutation + :meth:`mark_mutated`, and readers hold
    it only for the instantaneous :meth:`lease` bookkeeping — never during
    their copy (:meth:`release` takes it itself for the decrement).
    """

    __slots__ = ("segment", "_header", "_slot_views", "_slots")

    def __init__(self, spec: ShardSegmentSpec, segment: SharedSegment, lock) -> None:
        """Bind to one shard's segment (created by :func:`create_shared_store`).

        ``lock`` is the shard's ``multiprocessing.Lock`` from the store
        handle — the same object in every attaching process.
        """
        layout = spec.build_layout()
        dtype = np.dtype(spec.dtype)
        # Base-class storage fields, initialized directly: the base
        # constructor would allocate a private heap buffer we do not want.
        self.key = f"shmshard:{spec.segment_name}"
        self.layout = layout
        self._dtype = dtype
        self._scratch = None
        self._full_segments = layout.weight_segments
        self._leases = 0  # unused: the shared header is authoritative
        self._lease_lock = None  # unused: external multiprocessing lock
        self.index = spec.index
        self.lock = lock
        self.version = 0  # pushes applied through *this* attachment
        self.segment = segment
        self._slots = spec.slots
        self._header = segment.ndarray(np.int64, spec.header_count, offset=0)
        slot_nbytes = spec.slot_nbytes(layout)
        self._slot_views = [
            segment.ndarray(
                dtype, layout.size, offset=spec.data_offset + slot * slot_nbytes
            )
            for slot in range(spec.slots)
        ]
        self._flat = self._slot_views[int(self._header[_CURRENT_SLOT])]

    # ------------------------------------------------------------------
    # Shared-header protocol
    # ------------------------------------------------------------------
    @property
    def current_slot(self) -> int:
        """Index of the slot the live buffer occupies."""
        return int(self._header[_CURRENT_SLOT])

    @property
    def mutations(self) -> int:
        """Count of mutations applied to this shard (any process may read it)."""
        return int(self._header[_MUTATIONS])

    @property
    def cow_fallbacks(self) -> int:
        """Times a writer mutated in place because every slot was leased."""
        return int(self._header[_COW_FALLBACKS])

    @property
    def leased(self) -> bool:
        """Whether the current slot has outstanding leases."""
        return int(self._header[_HEADER_FIXED + self.current_slot]) > 0

    def lease_current(self) -> int:
        """Record one lease on the current slot; returns the slot index.

        Caller must hold ``self.lock``; the subsequent copy-out must happen
        *outside* the lock, followed by :meth:`release`.
        """
        slot = self.current_slot
        self._header[_HEADER_FIXED + slot] += 1
        return slot

    def mark_mutated(self) -> None:
        """Bump the shard's mutation counter (under ``self.lock``, after a write).

        Workers compare it against the value they saw last pull and skip
        shards that did not change — the cross-process analogue of the
        store's shard stamps.
        """
        self._header[_MUTATIONS] += 1

    # ------------------------------------------------------------------
    # Copy-on-write (overrides the thread-level implementations)
    # ------------------------------------------------------------------
    def lease(self) -> None:
        """Lease the current slot and point :attr:`buffer` at it.

        Caller must hold ``self.lock``.  Only the server process moves
        ``current_slot``, so a reader-side attachment re-reads it here —
        the views built after a lease always observe the leased slot.
        """
        self._flat = self._slot_views[self.lease_current()]

    def release(self, buffer: np.ndarray) -> None:
        """Map ``buffer`` back to its slot and drop one lease on it.

        Takes ``self.lock`` only for the instantaneous counter decrement.
        """
        for slot, view in enumerate(self._slot_views):
            if buffer is view:
                with self.lock:
                    if self._header[_HEADER_FIXED + slot] > 0:
                        self._header[_HEADER_FIXED + slot] -= 1
                return

    def materialize(self) -> None:
        """Make the live buffer privately writable before a mutation.

        Caller must hold ``self.lock``.  If the current slot is leased,
        copy it into a lease-free slot and point ``current_slot`` there —
        every leased reader keeps observing exactly its snapshot.  If no
        slot is free (only possible when crashed readers leaked leases),
        fall back to mutating in place rather than stalling training.
        """
        current = self.current_slot
        if self._header[_HEADER_FIXED + current] == 0:
            return
        for slot in range(self._slots):
            if slot != current and self._header[_HEADER_FIXED + slot] == 0:
                np.copyto(self._slot_views[slot], self._slot_views[current])
                self._header[_CURRENT_SLOT] = slot
                self._flat = self._slot_views[slot]
                return
        self._header[_COW_FALLBACKS] += 1  # pragma: no cover - crashed readers only


class SharedFlatStore(ShardedKeyValueStore):
    """The store over shards attached from a :class:`SharedStoreHandle`.

    Everything :class:`~repro.ps.sharding.ShardedKeyValueStore` does, it
    does here unchanged; this class only adds what the placement forces.
    The global version lives in the header segment, where every attached
    process can read it.  Exactly **one** process may attach with
    ``writer=True`` (the server): the shard locks in the handle serialize
    its mutations against reader leases taken by :class:`ShmStoreClient`
    attachments in other processes, and the per-shard pull stamps and push
    counters are that process's own.  And because slots are a finite
    shared resource with no garbage collector to forgive a leaked lease,
    the view accessors return copies;
    :meth:`~repro.ps.sharding.ShardedKeyValueStore.leased_state` is the
    zero-copy read.

    Worker processes never call :meth:`pull` — they pull through their own
    :class:`ShmStoreClient` attachment without involving the server at
    all, skipping unchanged shards by mutation counter.
    """

    def __init__(self, handle: SharedStoreHandle, writer: bool = True) -> None:
        """Attach to the store's segments; ``writer=True`` only in the server."""
        self._writer = bool(writer)
        self._header_segment = SharedSegment.attach(handle.header_segment)
        self._version_view = self._header_segment.ndarray(np.int64, 1, offset=0)
        self._version_lock = handle.version_lock
        shards = [
            SharedFlatShard(spec, SharedSegment.attach(spec.segment_name), lock)
            for spec, lock in zip(handle.shard_specs, handle.shard_locks)
        ]
        # The handle does not record declaration order: names come back in
        # layout order, shard by shard.
        self._bind(
            shards,
            normalize_store_dtype(handle.dtype),
            [name for shard in shards for name in shard.layout.weight_names],
            [name for shard in shards for name in shard.layout.buffer_names],
        )

    @property
    def _version(self) -> int:
        """The global version counter, kept in the header segment."""
        return int(self._version_view[0])

    @_version.setter
    def _version(self, value: int) -> None:
        self._version_view[0] = value

    @property
    def cow_fallbacks(self) -> int:
        """Total in-place mutations forced by fully-leased shards (should be 0)."""
        return sum(shard.cow_fallbacks for shard in self._shards)

    def _check_writer(self) -> None:
        if not self._writer:
            raise RuntimeError(
                "this SharedFlatStore attachment is read-only; only the "
                "server process may mutate the shared store"
            )

    def _snapshot_views(self, entries) -> "OrderedDict[str, np.ndarray]":
        """Copies instead of leased views: nobody would hand the lease back."""
        return self._copies(entries)

    def close(self) -> None:
        """Drop this process's segment mappings (the segments live on)."""
        for shard in self._shards:
            shard.segment.close()
        self._header_segment.close()


class ShmStoreClient(SharedFlatStore):
    """A worker-process attachment to the shared store (read path only).

    Wraps the lease protocol into the one operation workers need:
    :meth:`pull_reply` builds a :class:`~repro.ps.messages.PullReply` whose
    flat payloads are zero-copy views of leased slots, skipping shards
    whose mutation counter has not moved since this client's previous pull
    — so :meth:`repro.ps.worker.Worker.load_reply` consumes it exactly like
    a threaded delta pull: one vectorized copy per *changed* shard, then
    ``release()`` drops the leases.
    """

    def __init__(self, handle: SharedStoreHandle) -> None:
        """Attach to every segment named by ``handle`` (read path only)."""
        super().__init__(handle, writer=False)
        self._seen_mutations = [-1] * len(self._shards)

    def pull_reply(self) -> PullReply:
        """Lease changed shards and wrap them as a consumable pull reply.

        All shard locks are taken for the (instantaneous) lease phase so
        the version/payload combination is cross-shard consistent — the
        same guarantee the store's own pulls give — and released before
        any data is copied.
        """
        with self._locked(self._shards):
            version = self.version
            changed = [
                shard
                for shard, seen in zip(self._shards, self._seen_mutations)
                if shard.mutations != seen
            ]
            for shard in changed:
                self._seen_mutations[shard.index] = shard.mutations
            snapshot = self._lease(changed)
            payloads = flat_payloads(changed)
        return PullReply(
            weights={},
            buffers={},
            version=version,
            flat_weights=payloads,
            release_fn=self._release_fn(snapshot),
            # What actually crosses the boundary: one packed weight block
            # per *changed* shard (unchanged shards were skipped above).
            wire_nbytes=int(sum(payload.buffer.nbytes for payload in payloads)),
        )


def create_shared_store(
    initial_weights: Mapping[str, np.ndarray],
    initial_buffers: Mapping[str, np.ndarray] | None = None,
    *,
    num_shards: int = 1,
    strategy: str = "size",
    dtype: np.dtype | str = np.float64,
    slots: int,
    context,
    grad_mailboxes: int = 0,
    grad_mailbox_nbytes: int | None = None,
) -> SharedStoreHandle:
    """Create every segment of a shared store and write the initial model.

    Called once by the coordinating (main) process before any child is
    spawned.  Keys are partitioned by
    :func:`~repro.ps.sharding.partition_state` exactly as the heap store
    partitions them, each shard's slot 0 is filled with the initial
    weights/buffers, and — when ``grad_mailboxes > 0`` — one per-worker gradient segment is
    laid out with every shard's weight block back to back (float64, the
    replica gradient dtype), so backward passes accumulate directly into
    memory the server can read.  ``grad_mailbox_nbytes`` overrides each
    mailbox's size: the process runtime passes the codec's worst-case
    *encoded* frame size, which is how compressed pushes shrink the
    segments themselves (see :mod:`repro.ps.compression`).

    The caller owns cleanup: hold the returned handle and call
    :meth:`SharedStoreHandle.unlink_all` in a ``finally`` block.
    ``slots`` must cover the worst-case concurrent readers plus one writer
    target (the process runtime passes ``workers + 2``).
    """
    store_dtype = normalize_store_dtype(dtype)
    parts = partition_state(initial_weights, initial_buffers, num_shards, strategy, store_dtype)
    if slots < 2:
        raise ValueError(f"slots must be >= 2 for copy-on-write, got {slots}")
    run_id = secrets.token_hex(4)

    header = SharedSegment.create(
        np.dtype(np.int64).itemsize, name=f"repro-{run_id}-head"
    )
    created = [header]
    specs: list[ShardSegmentSpec] = []
    try:
        view = header.ndarray(np.int64, 1)
        view[0] = 0
        del view
        for index, (weights, buffers) in enumerate(parts):
            spec = ShardSegmentSpec(
                index=index,
                segment_name=f"repro-{run_id}-shard{index}",
                weight_shapes=tuple(
                    (name, tuple(np.asarray(value).shape)) for name, value in weights.items()
                ),
                buffer_shapes=tuple(
                    (name, tuple(np.asarray(value).shape)) for name, value in buffers.items()
                ),
                dtype=store_dtype.name,
                slots=int(slots),
            )
            layout = spec.build_layout()
            segment = SharedSegment.create(
                spec.segment_nbytes(layout), name=spec.segment_name
            )
            created.append(segment)
            head = segment.ndarray(np.int64, spec.header_count)
            head[:] = 0
            slot0 = segment.ndarray(store_dtype, layout.size, offset=spec.data_offset)
            for name, value in (*weights.items(), *buffers.items()):
                seg = layout.segment(name)
                slot0[seg.lo : seg.hi] = np.asarray(value, dtype=store_dtype).ravel()
            del head, slot0
            specs.append(spec)

        grad_names: list[str] = []
        grad_elements = sum(spec.build_layout().weights_end for spec in specs)
        mailbox_nbytes = (
            int(grad_mailbox_nbytes)
            if grad_mailbox_nbytes is not None
            else max(grad_elements, 1) * np.dtype(np.float64).itemsize
        )
        mailbox_nbytes = max(mailbox_nbytes, 8)
        for worker in range(grad_mailboxes):
            name = f"repro-{run_id}-grad{worker}"
            segment = SharedSegment.create(mailbox_nbytes, name=name)
            created.append(segment)
            view = segment.ndarray(np.uint8, mailbox_nbytes)
            view[:] = 0
            del view
            grad_names.append(name)
    except BaseException:
        for segment in created:
            segment.close()
            segment.unlink()
        raise

    # The creating process keeps no mapping open: children attach by name,
    # and cleanup goes through unlink_by_name.  (Closing here also keeps
    # BufferError away from the exported ndarray views at interpreter exit.)
    for segment in created:
        segment.close()

    return SharedStoreHandle(
        header_segment=header.name,
        shard_specs=tuple(specs),
        shard_locks=tuple(context.Lock() for _ in specs),
        version_lock=context.Lock(),
        dtype=store_dtype.name,
        grad_segments=tuple(grad_names),
    )
