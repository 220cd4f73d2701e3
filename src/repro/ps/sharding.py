"""The parameter store: packed per-shard tensors, copy-on-write pulls.

The paper's experiments run on the standard parameter-server architecture in
which the global model is *partitioned across server shards*: each shard owns
a disjoint subset of the parameter keys, so pushes and pulls scale with the
number of servers instead of funnelling through one process.  This module
reproduces that shape in-process:

* :class:`ShardRouter` — deterministic assignment of parameter keys to
  shards, either by a stable hash of the key name or by greedy size
  balancing (largest-tensor-first into the least-loaded shard);
* :class:`ShardedKeyValueStore` — the one store implementation.  It keeps
  per-shard version counters (how many pushes touched each shard) next to
  the global update counter and answers pulls with **copy-on-write
  snapshots**.  A monolithic store is the same class over
  one shard (``make_store(..., num_shards=1)``); the process runtime's
  store is the same class over shards that live in shared memory
  (:class:`repro.ps.shm.SharedFlatStore`), which alone takes locks: its
  workers read from other processes while the server writes.

Each shard's entries live in one contiguous packed buffer
(:class:`repro.ps.flatbuffer.FlatShard`), which makes the hot path
vectorized end to end: pulls hand out zero-copy read-only views
(``flat[lo:hi].reshape(shape)``), gradient application packs the pushed
dictionary into contiguous runs and applies them as fused array ops, and a
full pull can move one buffer per shard instead of N named arrays.

Copy-on-write works at shard granularity.  A pull hands out read-only views
of the live buffer and marks the shard as *leased*.  The next update that
would mutate a leased shard first re-materializes it — one vectorized copy
of the packed buffer — so every view handed out earlier keeps observing
exactly the snapshot it was given.  Copy cost is therefore one buffer copy
per shard per update interval, instead of one copy per pulled key per pull.
Pulls work at shard granularity too.  The store keeps two stamps per shard
— the version of its last gradient apply and of its last buffer write — and
a pull carrying the worker's ``known_version`` resends only the shards whose
stamps moved past it; a worker already at the tip receives an empty reply
that takes no lease and triggers no copy at all.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from collections.abc import Mapping
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.optim.optimizer import Optimizer
from repro.ps.flatbuffer import FlatShard, SnapshotViews
from repro.ps.messages import FlatPullPayload, PullReply

__all__ = [
    "ShardRouter",
    "ShardedKeyValueStore",
    "make_store",
    "normalize_store_dtype",
    "partition_state",
]

_STRATEGIES = ("hash", "size")
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShardRouter:
    """Deterministic mapping of parameter keys to server shards.

    Two partitioning strategies are provided:

    * ``"hash"`` — ``crc32(key) % num_shards``.  Stateless and stable across
      processes (unlike Python's salted ``hash``), but blind to tensor sizes,
      so a model with one dominant tensor can end up skewed.
    * ``"size"`` — longest-processing-time greedy balancing: keys are sorted
      by payload size (largest first, name as the tie-break) and each is
      assigned to the currently least-loaded shard.  This is what parameter
      servers that know their model do, and it keeps the per-shard payload
      of a full pull nearly equal.
    """

    def __init__(
        self,
        sizes: Mapping[str, int],
        num_shards: int,
        strategy: str = "size",
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
        if not sizes:
            raise ValueError("sizes must contain at least one key")
        self._num_shards = int(num_shards)
        self._strategy = strategy
        self._assignments: dict[str, int] = {}
        if strategy == "hash":
            for key in sizes:
                self._assignments[key] = self._hash_shard(key)
        else:
            loads = [0] * self._num_shards
            ordered = sorted(sizes.items(), key=lambda item: (-int(item[1]), item[0]))
            for key, size in ordered:
                shard = min(range(self._num_shards), key=lambda i: (loads[i], i))
                self._assignments[key] = shard
                loads[shard] += int(size)
        self._shard_sizes = [0] * self._num_shards
        for key, size in sizes.items():
            self._shard_sizes[self._assignments[key]] += int(size)

    def _hash_shard(self, key: str) -> int:
        return zlib.crc32(key.encode("utf-8")) % self._num_shards

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shards keys are routed to."""
        return self._num_shards

    @property
    def strategy(self) -> str:
        """Partitioning strategy (``"hash"`` or ``"size"``)."""
        return self._strategy

    def shard_of(self, key: str) -> int:
        """Shard index owning ``key``.

        Keys the router was not built with are resolvable under the hash
        strategy (the mapping is stateless) and a ``KeyError`` under size
        balancing (assignment depends on the build-time key set).
        """
        try:
            return self._assignments[key]
        except KeyError:
            if self._strategy == "hash":
                return self._hash_shard(key)
            raise KeyError(f"key {key!r} was not routed by this size-balanced router") from None

    def balance(self) -> float:
        """Max shard load divided by the mean load (1.0 is a perfect split)."""
        mean = sum(self._shard_sizes) / self._num_shards
        if mean == 0:
            return 1.0
        return max(self._shard_sizes) / mean


def normalize_store_dtype(dtype: np.dtype | str) -> np.dtype:
    """Validate and normalize a store dtype (``float32`` or ``float64``).

    The paper's MXNet setup keeps weights in float32 on the wire; float64 is
    the historical default of this reproduction.  Restricting to the two
    keeps checkpoints portable and the transfer-size accounting honest.
    """
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"store dtype must be float32 or float64, got {resolved.name!r}"
        )
    return resolved


def partition_state(
    initial_weights: Mapping[str, np.ndarray],
    initial_buffers: Mapping[str, np.ndarray] | None,
    num_shards: int,
    strategy: str,
    dtype: np.dtype | str,
) -> "list[tuple[OrderedDict, OrderedDict]]":
    """Validate an initial model and split it into per-shard entries.

    Returns one ``(weights, buffers)`` pair of ordered mappings per shard,
    each in declaration order, so the packed layout — and therefore every
    flat payload — is deterministic for a given :class:`ShardRouter`.  The
    heap store, :func:`repro.ps.shm.create_shared_store` and the process
    runtime's mailbox sizing all partition through here, so no two of them
    can disagree on which shard owns a key.
    """
    if not initial_weights:
        raise ValueError("initial_weights must contain at least one parameter")
    itemsize = normalize_store_dtype(dtype).itemsize
    initial_buffers = initial_buffers or {}
    overlap = set(initial_weights) & set(initial_buffers)
    if overlap:
        raise ValueError(f"names used as both weight and buffer: {sorted(overlap)[:5]}")
    sizes = {
        name: np.asarray(value).size * itemsize
        for name, value in (*initial_weights.items(), *initial_buffers.items())
    }
    router = ShardRouter(sizes, num_shards=num_shards, strategy=strategy)
    parts = [(OrderedDict(), OrderedDict()) for _ in range(router.num_shards)]
    for name, value in initial_weights.items():
        parts[router.shard_of(name)][0][name] = value
    for name, value in initial_buffers.items():
        parts[router.shard_of(name)][1][name] = value
    return parts


def flat_payloads(shards) -> "tuple[FlatPullPayload, ...]":
    """One packed weight-block payload per (already leased) shard that has weights."""
    return tuple(
        FlatPullPayload(
            shard=shard.index,
            buffer=shard.flat_weights_view(),
            layout=shard.layout.weight_segments,
        )
        for shard in shards
        if shard.layout.weights_end
    )


class ShardedKeyValueStore:
    """The parameter store: versioned, key-partitioned, copy-on-write pulls.

    Two kinds of entries are stored: *weights* — trainable parameters,
    updated by applying pushed gradients through an
    :class:`repro.optim.Optimizer` — and *buffers* — non-trainable state
    (e.g. batch-norm running statistics), overwritten wholesale when a
    worker pushes fresher values.  ``version`` counts the gradient
    applications, which is the quantity used to measure update staleness.

    The store is written once over a list of shard objects.  A shard
    (:class:`~repro.ps.flatbuffer.FlatShard` on the heap,
    :class:`repro.ps.shm.SharedFlatShard` in a shared-memory segment) owns
    where its packed bytes live and how copy-on-write is done; everything
    else lives here:

    * keys are partitioned across ``num_shards`` shards by a
      :class:`ShardRouter`, and each shard's entries are packed into one
      contiguous flat buffer (weights first, buffers after);
    * each shard counts the pushes that touched it (``shard_versions``);
      the global ``version`` counts every gradient application, so
      staleness measurement does not depend on the shard count;
    * each shard also stamps the global version of its last gradient
      apply and of its last buffer write, and a pull hands out zero-copy
      read-only views of only the shards whose stamps moved past the
      puller's ``known_version`` — one rule whatever the shard count.

    :func:`make_store` builds it on the heap (one shard is a monolithic
    store) and :class:`repro.ps.shm.SharedFlatStore` over shards attached
    from a :class:`~repro.ps.shm.SharedStoreHandle`.  One thread uses a
    store, so it takes no lock; the shared-memory store adds the
    cross-process ones through :meth:`_guard`.
    """

    def __init__(
        self,
        initial_weights: Mapping[str, np.ndarray],
        initial_buffers: Mapping[str, np.ndarray] | None = None,
        num_shards: int = 4,
        strategy: str = "size",
        dtype: np.dtype | str = np.float64,
    ) -> None:
        dtype = normalize_store_dtype(dtype)
        shards = []
        for index, (weights, buffers) in enumerate(
            partition_state(initial_weights, initial_buffers, num_shards, strategy, dtype)
        ):
            shard = FlatShard(weights, buffers, dtype=dtype)
            shard.index = index
            shards.append(shard)
        self._version = 0
        self._bind(shards, dtype, list(initial_weights), list(initial_buffers or {}))

    def _bind(
        self,
        shards: list[FlatShard],
        dtype: np.dtype,
        weight_names: list[str],
        buffer_names: list[str],
    ) -> None:
        """Build the name tables over ``shards`` (shared by every constructor)."""
        self._shards = shards
        self._dtype = dtype
        self._weight_names = weight_names
        self._buffer_names = buffer_names
        # Static name → (shard, segment) tables backing the lazy snapshot
        # mappings, so a full pull costs O(shards) instead of O(parameters).
        located = {
            name: (shard.index, shard.layout.segment(name))
            for shard in shards
            for name in (*shard.layout.weight_names, *shard.layout.buffer_names)
        }
        self._weight_entries = OrderedDict((name, located[name]) for name in weight_names)
        self._buffer_entries = OrderedDict((name, located[name]) for name in buffer_names)
        self._state_entries = OrderedDict(
            (*self._weight_entries.items(), *self._buffer_entries.items())
        )
        self._weight_holders = [shard for shard in shards if shard.layout.weights_end]
        self._buffer_holders = [shard for shard in shards if shard.layout.buffer_names]
        # Per shard, the version of its last gradient apply and the version
        # at its last buffer write (see :meth:`pull`).
        self._weights_at = [0] * len(shards)
        self._buffers_at = [0] * len(shards)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """Element dtype of every stored array."""
        return self._dtype

    @property
    def num_shards(self) -> int:
        """Number of shards the keys are partitioned across."""
        return len(self._shards)

    @property
    def version(self) -> int:
        """Number of gradient updates applied so far (global, cross-shard)."""
        return self._version

    @property
    def shard_versions(self) -> list[int]:
        """Per-shard push counters (pushes whose gradient touched the shard)."""
        return [shard.version for shard in self._shards]

    @property
    def parameter_names(self) -> list[str]:
        """Names of the trainable parameters (original declaration order)."""
        return list(self._weight_names)

    @property
    def num_parameters(self) -> int:
        """Total scalar count of the trainable parameters."""
        return int(sum(shard.layout.weights_end for shard in self._shards))

    @property
    def nbytes(self) -> int:
        """Bytes transferred by one full pull (weights plus buffers)."""
        return sum(self.shard_nbytes)

    @property
    def shard_nbytes(self) -> list[int]:
        """Full-pull payload bytes held by each shard."""
        return [int(shard.nbytes) for shard in self._shards]

    @property
    def flat_layouts(self) -> tuple[tuple[int, tuple], ...]:
        """Per-shard weight layouts, for workers that pack their replicas."""
        return tuple((shard.index, shard.layout.weight_segments) for shard in self._shards)

    def shard_of(self, key: str) -> int:
        """Shard index owning ``key`` (``KeyError`` if the store has no such entry)."""
        return self._state_entries[key][0]

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def _guard(self, shards: list[FlatShard]):
        """Context held around every read or write of ``shards``.

        One thread uses a heap store, so it holds nothing; the shared-memory
        store takes those shards' cross-process locks here.
        """
        return nullcontext()

    @staticmethod
    def _lease(shards: list[FlatShard]) -> dict[int, np.ndarray]:
        """Lease ``shards``; shard index → leased buffer."""
        snapshot = {}
        for shard in shards:
            shard.lease()
            snapshot[shard.index] = shard.buffer
        return snapshot

    def _release_fn(self, snapshot: Mapping[int, np.ndarray]):
        """Idempotent closure dropping one lease per captured shard buffer."""
        pairs = [(self._shards[index], buffer) for index, buffer in snapshot.items()]
        released = False

        def release_fn() -> None:
            nonlocal released
            if not released:
                released = True
                for shard, buffer in pairs:
                    shard.release(buffer)

        return release_fn

    def _lease_all(self) -> dict[int, np.ndarray]:
        """Lease every shard: a point-in-time snapshot, which copy-on-write
        keeps stable afterwards."""
        with self._guard(self._shards):
            return self._lease(self._shards)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _snapshot_views(self, entries) -> Mapping[str, np.ndarray]:
        """Lease every shard and wrap ``entries`` as lazy stable views.

        The lease is never handed back: the next write re-materializes the
        leased buffer and garbage collection reclaims the old one.
        """
        return SnapshotViews(entries, self._lease_all())

    @contextmanager
    def leased_state(self):
        """Stable read-only views of weights+buffers for the ``with`` body.

        Leases every shard (see :meth:`_lease_all`), yields a lazy
        :class:`~repro.ps.flatbuffer.SnapshotViews`, and hands the leases
        back on exit — the zero-copy read that costs the next write no
        copy-on-write copy.
        """
        snapshot = self._lease_all()
        try:
            yield SnapshotViews(self._state_entries, snapshot)
        finally:
            self._release_fn(snapshot)()

    def _copies(self, entries) -> "OrderedDict[str, np.ndarray]":
        """Deep copies of ``entries``, taken under :meth:`leased_state`."""
        with self.leased_state() as views:
            return OrderedDict((name, np.array(views[name])) for name in entries)

    @property
    def weights(self) -> Mapping[str, np.ndarray]:
        """Zero-copy read-only views of the current weights.

        The views are stable snapshots: the next update re-materializes the
        packed buffer (copy-on-write) instead of mutating what was handed
        out.  Callers that need writable, independent arrays should use
        :meth:`snapshot` / :meth:`weights_snapshot`.
        """
        return self._snapshot_views(self._weight_entries)

    @property
    def buffers(self) -> Mapping[str, np.ndarray]:
        """Zero-copy read-only views of the current buffers (see :attr:`weights`)."""
        return self._snapshot_views(self._buffer_entries)

    def state_views(self) -> Mapping[str, np.ndarray]:
        """Read-only views of weights and buffers combined (zero-copy).

        The evaluation path loads these into a separate model (which copies
        into its own arrays), so no deep copy of the global state is needed.
        """
        return self._snapshot_views(self._state_entries)

    def weights_snapshot(self) -> "OrderedDict[str, np.ndarray]":
        """Deep copy of the current weights (original declaration order)."""
        return self._copies(self._weight_entries)

    def snapshot(self) -> "OrderedDict[str, np.ndarray]":
        """Deep copy of weights and buffers combined (writable, independent)."""
        return self._copies(self._state_entries)

    @staticmethod
    def _moved(table, holders, stamps, since):
        """The ``holders`` of ``table``'s entries stamped ``>= since``, and those entries."""
        shards = [shard for shard in holders if stamps[shard.index] >= since]
        if len(shards) < len(holders):
            held = {shard.index for shard in shards}
            table = OrderedDict((name, entry) for name, entry in table.items() if entry[0] in held)
        return shards, table

    def pull(self, known_version: int | None = None) -> PullReply:
        """Lease the shards that moved since ``known_version`` and reply with them.

        A shard's weight block is resent when a gradient was applied to it
        after the base, its buffers when they were written at or after it
        (buffer writes do not bump the version, so a buffer stamped with the
        base may postdate the pull that returned it); ``None`` knows nothing
        (base ``-1``).  The reply carries the weight blocks as
        ``flat_weights`` plus lazy read-only views of the entries, stable
        under copy-on-write, and ``wire_nbytes`` counts exactly those bytes.
        A worker already at the tip gets an empty reply that takes no lease.
        """
        base = -1 if known_version is None else int(known_version)
        with self._guard(self._shards):
            weights, weight_entries = self._moved(
                self._weight_entries, self._weight_holders, self._weights_at, base + 1
            )
            buffers, buffer_entries = self._moved(
                self._buffer_entries, self._buffer_holders, self._buffers_at, base
            )
            snapshot = self._lease([s for s in self._shards if s in weights or s in buffers])
            scalars = sum(s.layout.weights_end for s in weights) + sum(
                s.layout.size - s.layout.weights_end for s in buffers
            )
            return PullReply(
                weights=SnapshotViews(weight_entries, snapshot),
                buffers=SnapshotViews(buffer_entries, snapshot),
                version=self.version,
                wire_nbytes=scalars * self._dtype.itemsize,
                flat_weights=flat_payloads(weights),
                release_fn=self._release_fn(snapshot),
            )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _check_writer(self) -> None:
        """Refuse writes through a read-only attachment (a heap store has none)."""

    def apply_gradients(
        self,
        gradients: Mapping[str, np.ndarray],
        optimizer: Optimizer,
        scale: float = 1.0,
        flat_gradients: Mapping[int, np.ndarray] | None = None,
    ) -> int:
        """Apply one gradient dictionary and bump the touched shards.

        Each shard owning some of the gradient's keys packs its
        share of the gradient into contiguous runs and the optimizer applies
        them as fused vectorized updates (one
        :meth:`~repro.optim.Optimizer.step_flat` call for the whole push); a
        full-model push that already carries the per-shard packed buffers
        (``flat_gradients`` from a layout-attached worker, typically views
        straight into its shared-memory mailbox) skips both the per-name
        routing and the gather.  A push may carry *only* the packed buffers
        (``gradients={}``) — the shape the TCP runtime decodes off the wire
        and the server's buffered aggregation path applies.  Returns the
        new global version.
        """
        self._check_writer()
        names = list(gradients)
        use_flat = (
            flat_gradients is not None
            and len(names) in (0, len(self._weight_names))
            and gradients.keys() <= self._weight_entries.keys()
            and all(
                shard.layout.weights_end == 0
                or (
                    flat_gradients.get(shard.index) is not None
                    and flat_gradients[shard.index].size == shard.layout.weights_end
                )
                for shard in self._shards
            )
        )
        if use_flat:
            touched = [shard for shard in self._shards if shard.layout.weights_end]
            # A packed push covers every weight, named or not.
            names = self._weight_names
        else:
            if not names:
                raise ValueError(
                    "push carried neither per-name gradients nor full-size "
                    "packed flat buffers for every shard"
                )
            by_shard: dict[int, dict[str, np.ndarray]] = {}
            for name in names:
                if name not in self._weight_entries:
                    raise KeyError(f"gradients refer to unknown parameters: [{name!r}]")
                by_shard.setdefault(self.shard_of(name), {})[name] = gradients[name]
            touched = [self._shards[index] for index in sorted(by_shard)]

        with self._guard(touched):
            updates = []
            for shard in touched:
                # Copy-on-write: holders of earlier pull views keep the old
                # buffer; the fused update mutates a private one.
                shard.materialize()
                if use_flat:
                    updates.append(shard.make_flat_update(flat_gradients[shard.index]))
                else:
                    updates.append(shard.make_update(by_shard[shard.index]))
            optimizer.step_flat(updates, scale=scale)
            self._version += 1
            new_version = self._version
            for shard in touched:
                shard.version += 1
                self._weights_at[shard.index] = new_version
                shard.mark_mutated()
            return new_version

    def _write_entries(self, table, stamps, values, unknown: str, mismatch: str) -> None:
        """Overwrite entries of ``table``: validate everything, then write.

        Every name and shape is checked before the first byte moves, so a
        rejected call leaves the store untouched.  A shard's entries are
        written under its :meth:`_guard`, after the copy-on-write that keeps
        outstanding pull views stable, and the shard's entry in ``stamps``
        is set to the version read there: any pull before the write saw a
        version <= the stamp, so the inclusive buffer comparison in
        :meth:`pull` resends the shard's buffers on that worker's next pull.
        """
        self._check_writer()
        missing = set(values) - table.keys()
        if missing:
            raise KeyError(f"{unknown}: {sorted(missing)[:5]}")
        by_shard: dict[int, list[tuple[str, np.ndarray]]] = {}
        for name, value in values.items():
            value = np.asarray(value, dtype=self._dtype)
            index, segment = table[name]
            if value.shape != segment.shape:
                raise ValueError(f"{mismatch} for {name!r}: {segment.shape} vs {value.shape}")
            by_shard.setdefault(index, []).append((name, value))
        for index, entries in by_shard.items():
            shard = self._shards[index]
            with self._guard([shard]):
                shard.materialize()
                stamps[index] = self.version
                for name, value in entries:
                    shard.write(name, value)
                shard.mark_mutated()

    def update_buffers(self, buffers: Mapping[str, np.ndarray]) -> None:
        """Overwrite buffer entries with fresher worker-side values.

        Buffer names must already exist in the store; unknown names raise
        ``KeyError`` (like :meth:`apply_gradients` does for weights) so a
        mis-keyed push fails loudly instead of growing the store silently.
        Shapes must match the stored arrays.
        """
        self._write_entries(
            self._buffer_entries, self._buffers_at, buffers,
            unknown="buffers refer to unknown entries", mismatch="buffer shape mismatch",
        )

    def overwrite_weights(self, weights: Mapping[str, np.ndarray]) -> None:
        """Replace the stored weights (restore path only).

        The written shards' weight stamps are set to the current version,
        so pulls from workers already at that version would not see the
        overwrite; checkpoint restore therefore always follows with
        :meth:`restore_version`, which resets every shard's stamps.
        """
        self._write_entries(
            self._weight_entries, self._weights_at, weights,
            unknown="unknown parameters", mismatch="shape mismatch",
        )

    def restore_version(
        self, version: int, shard_versions: list[int] | None = None
    ) -> None:
        """Reset the global and per-shard counters (checkpoint restore).

        ``shard_versions`` restores the per-shard counters exactly when the
        checkpoint was written by a store with the same shard count;
        otherwise (a different shard layout) every shard counter is set to
        the global version, a safe upper bound.  Every shard's weight and
        buffer stamps are set to ``version``, so the next pull from any
        worker with an older base resends the restored state in full (and
        one at ``version`` still gets the buffers).
        """
        self._check_writer()
        if version < 0:
            raise ValueError(f"version must be >= 0, got {version}")
        if shard_versions is None or len(shard_versions) != len(self._shards):
            shard_versions = [version] * len(self._shards)
        with self._guard(self._shards):
            self._version = int(version)
            for shard, shard_version in zip(self._shards, shard_versions):
                shard.version = int(shard_version)
            self._weights_at = [int(version)] * len(self._shards)
            self._buffers_at = [int(version)] * len(self._shards)


def make_store(
    initial_weights: Mapping[str, np.ndarray],
    initial_buffers: Mapping[str, np.ndarray] | None = None,
    *,
    num_shards: int = 1,
    strategy: str = "size",
    dtype: np.dtype | str = np.float64,
) -> ShardedKeyValueStore:
    """Build the heap store for a given shard count.

    Every assembly path (coordinator, simulator, TCP server, tests) goes
    through this factory; one shard is a monolithic store.
    """
    return ShardedKeyValueStore(
        initial_weights,
        initial_buffers,
        num_shards=num_shards,
        strategy=strategy,
        dtype=dtype,
    )
