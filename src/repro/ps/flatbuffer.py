"""Packed flat-buffer storage: one contiguous tensor per shard.

Real parameter servers do not store a shard's parameters as a dictionary of
small arrays — they pack them into one contiguous buffer so every hot-path
operation (pull, push, optimizer step) is a handful of vectorized ops over
large slices instead of a Python loop over named tensors.  This module
provides that layer:

* :class:`FlatLayout` — the offset table.  Every entry owns a half-open
  range ``[lo, hi)`` of the flat buffer; trainable weights are packed first
  (in declaration order), non-trainable buffers after them, so "all the
  weights" is a single contiguous slice.
* :class:`FlatShard` — the buffer itself, plus the machinery the stores
  need: zero-copy read-only views per entry (``flat[lo:hi].reshape(shape)``
  with ``writeable=False``), a shard-level copy-on-write *lease* so views
  handed out by pulls stay stable snapshots, and run packing that turns a
  pushed gradient dictionary into the fewest possible contiguous segments.
* :class:`FlatUpdate` — the unit :meth:`repro.optim.SGD.step_flat`
  consumes: the shard's writable buffer, its weight layout, and the packed
  gradient runs to apply.

Copy-on-write is coarser than the per-key leases the dict-based store used:
a pull leases the whole shard, and the next mutation re-materializes the
whole shard buffer with one ``memcpy``.  That trade is deliberate — one
vectorized buffer copy per update interval is far cheaper than per-key
bookkeeping in the interpreter, and it is what makes pulls zero-copy.

The layout has a second payoff beyond vectorization: a packed shard is one
contiguous array, which is exactly the shape POSIX shared memory serves —
:mod:`repro.ps.shm` subclasses :class:`FlatShard` to put the same buffer
(and the same lease protocol) in a ``multiprocessing.shared_memory``
segment for the process-per-worker runtime.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

__all__ = ["Segment", "FlatLayout", "FlatShard", "FlatUpdate", "SnapshotViews"]

#: Process-wide counter giving every :class:`FlatShard` a distinct state key
#: (optimizers key their packed per-shard state — e.g. SGD velocity — on it).
_SHARD_KEYS = itertools.count()


@dataclass(frozen=True)
class Segment:
    """One entry's slot in the flat buffer: ``flat[lo:hi]`` reshaped."""

    name: str
    lo: int
    hi: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of scalar elements in this segment."""
        return self.hi - self.lo


class FlatLayout:
    """Offset table mapping entry names to flat-buffer segments.

    Weights come first (declaration order), buffers after, so the weight
    block is the single slice ``[0, weights_end)`` — the payload of a full
    pull — and the buffer block is ``[weights_end, size)``.
    """

    __slots__ = (
        "_segments",
        "_weight_names",
        "_buffer_names",
        "_weight_segments",
        "weights_end",
        "size",
    )

    def __init__(
        self,
        weight_shapes: Mapping[str, tuple[int, ...]],
        buffer_shapes: Mapping[str, tuple[int, ...]] | None = None,
    ) -> None:
        """Build the offset table from name → shape mappings.

        ``weight_shapes`` and ``buffer_shapes`` are laid out in iteration
        order (weights first), so two layouts built from equal mappings are
        identical — the property that lets worker processes rebuild the
        server's layout from a picklable description.  A name appearing in
        both mappings raises ``ValueError``.
        """
        self._segments: "OrderedDict[str, Segment]" = OrderedDict()
        offset = 0
        for name, shape in weight_shapes.items():
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            self._segments[name] = Segment(name, offset, offset + count, tuple(shape))
            offset += count
        self.weights_end = offset
        for name, shape in (buffer_shapes or {}).items():
            if name in self._segments:
                raise ValueError(f"name used as both weight and buffer: {name!r}")
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            self._segments[name] = Segment(name, offset, offset + count, tuple(shape))
            offset += count
        self.size = offset
        self._weight_names = tuple(weight_shapes)
        self._buffer_names = tuple(buffer_shapes or ())
        self._weight_segments = tuple(
            self._segments[name] for name in self._weight_names
        )

    # ------------------------------------------------------------------
    @property
    def weight_names(self) -> tuple[str, ...]:
        """Entry names in the weight block, in layout order."""
        return self._weight_names

    @property
    def buffer_names(self) -> tuple[str, ...]:
        """Entry names in the buffer block, in layout order."""
        return self._buffer_names

    @property
    def weight_segments(self) -> tuple[Segment, ...]:
        """Segments of the weight block, in layout order."""
        return self._weight_segments

    def __contains__(self, name: str) -> bool:
        return name in self._segments

    def __len__(self) -> int:
        return len(self._segments)

    def segment(self, name: str) -> Segment:
        """The segment owning ``name`` (``KeyError`` if unknown)."""
        return self._segments[name]


@dataclass
class FlatUpdate:
    """One shard's share of a fused gradient application.

    Consumed by :meth:`repro.optim.SGD.step_flat`.  ``runs`` holds the
    packed gradient as the fewest contiguous segments ``(lo, hi, grad)``
    where ``grad`` is a private scratch array the optimizer may mutate in
    place.  A *sparse* run carries the tuple ``(indices, values)`` instead:
    sorted, unique positions relative to ``lo`` and the gradient there, zero
    everywhere else, both read-only — handed only to an optimizer whose
    ``sparse_runs`` is true.  ``velocity_size``/``layout`` let stateful
    optimizers keep their per-shard state (e.g. momentum velocity) as one
    flat buffer aligned with the weight block while still exporting it
    per-name for checkpoints.
    """

    key: str
    weights: np.ndarray
    velocity_size: int
    layout: tuple[Segment, ...]
    runs: list[tuple[int, int, np.ndarray | tuple]]


class SnapshotViews(Mapping):
    """Lazy read-only views over captured shard buffers.

    A pull must not pay a per-parameter cost: this mapping captures only the
    (already leased) buffers it snapshots — O(shards) — and materializes the
    per-name ``buffer[lo:hi].reshape(shape)`` views on first access.  Because
    the buffers were leased at capture time, copy-on-write guarantees every
    view keeps observing exactly this snapshot, no matter when it is built.
    """

    __slots__ = ("_entries", "_buffers", "_cache")

    def __init__(
        self,
        entries: Mapping[str, tuple[int, Segment]],
        buffers: Mapping[int, np.ndarray],
    ) -> None:
        """Wrap captured buffers as a lazy mapping.

        ``entries`` maps entry name → ``(shard index, segment)`` (a static
        table the store builds once); ``buffers`` maps shard index → the
        leased flat buffer the snapshot observes.
        """
        self._entries = entries
        self._buffers = buffers
        self._cache: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._cache.get(name)
        if view is None:
            shard, segment = self._entries[name]
            view = self._buffers[shard][segment.lo : segment.hi].reshape(segment.shape)
            view.flags.writeable = False
            self._cache[name] = view
        return view

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name) -> bool:
        return name in self._entries


class FlatShard:
    """All of a shard's entries packed into one contiguous ``np.ndarray``.

    The copy-on-write trio — :meth:`lease`, :meth:`release`,
    :meth:`materialize` — is the storage contract the store
    (:class:`repro.ps.sharding.ShardedKeyValueStore`) is written against,
    and it is deliberately overridable: :class:`repro.ps.shm.SharedFlatShard`
    keeps the packing machinery of this class but relocates the buffer into
    a ``multiprocessing.shared_memory`` segment and the lease counters into
    its shared header, turning the same protocol cross-process.  The shard
    also carries what the store keeps per shard: ``index`` and ``version``
    (pushes that touched it).
    """

    __slots__ = (
        "key",
        "index",
        "version",
        "layout",
        "_flat",
        "_leases",
        "_dtype",
        "_scratch",
        "_full_segments",
    )

    def __init__(
        self,
        weights: Mapping[str, np.ndarray],
        buffers: Mapping[str, np.ndarray] | None = None,
        dtype: np.dtype | str = np.float64,
    ) -> None:
        """Pack ``weights`` (then ``buffers``) into one fresh flat buffer.

        The initial values are copied in (cast to ``dtype``); the arrays
        passed here are never aliased afterwards.
        """
        self._dtype = np.dtype(dtype)
        self.key = f"flatshard:{next(_SHARD_KEYS)}"
        # What the owning store keeps per shard: its position (the store
        # renumbers it) and the count of pushes that touched it.
        self.index = 0
        self.version = 0
        self.layout = FlatLayout(
            {name: np.asarray(value).shape for name, value in weights.items()},
            {name: np.asarray(value).shape for name, value in (buffers or {}).items()},
        )
        self._flat = np.empty(self.layout.size, dtype=self._dtype)
        for name, value in weights.items():
            segment = self.layout.segment(name)
            self._flat[segment.lo : segment.hi] = np.asarray(
                value, dtype=self._dtype
            ).ravel()
        for name, value in (buffers or {}).items():
            segment = self.layout.segment(name)
            self._flat[segment.lo : segment.hi] = np.asarray(
                value, dtype=self._dtype
            ).ravel()
        self._leases = 0
        # Pooled gradient-packing scratch (allocated on first push) and the
        # precomputed single run of a full-model push: reusing them keeps
        # the push hot path free of multi-megabyte allocations.
        self._scratch: np.ndarray | None = None
        self._full_segments = self.layout.weight_segments

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the packed buffer."""
        return self._dtype

    @property
    def nbytes(self) -> int:
        """Total payload bytes (weights plus buffers)."""
        return self.layout.size * self._dtype.itemsize

    @property
    def leased(self) -> bool:
        """Whether outstanding pull views pin the current buffer."""
        return self._leases > 0

    @property
    def buffer(self) -> np.ndarray:
        """The live flat buffer (internal; mutate only after :meth:`materialize`)."""
        return self._flat

    @property
    def flat(self) -> "FlatShard":
        """The packed storage of a store's shard entry: the shard itself."""
        return self

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @staticmethod
    def _readonly(view: np.ndarray) -> np.ndarray:
        view.flags.writeable = False
        return view

    def view(self, name: str) -> np.ndarray:
        """Zero-copy read-only view of one entry."""
        segment = self.layout.segment(name)
        return self._readonly(self._flat[segment.lo : segment.hi].reshape(segment.shape))

    def flat_weights_view(self) -> np.ndarray:
        """Zero-copy read-only view of the whole weight block (one slice)."""
        return self._readonly(self._flat[: self.layout.weights_end])

    # ------------------------------------------------------------------
    # Copy-on-write
    # ------------------------------------------------------------------
    def lease(self) -> None:
        """Record one more outstanding snapshot of the current buffer."""
        self._leases += 1

    def release(self, buffer: np.ndarray) -> None:
        """Drop one lease taken on ``buffer`` (the snapshot was consumed).

        A no-op when the buffer has since been re-materialized — the holder
        then pins an old copy whose lifetime plain refcounting handles.  In
        the canonical *pull → load into replica → push* loop every lease is
        released before the push, so the steady state pays **no**
        copy-on-write copies at all.
        """
        if buffer is self._flat and self._leases > 0:
            self._leases -= 1

    def materialize(self) -> None:
        """Make the buffer privately writable before a mutation.

        If unreleased leases pin the current buffer, replace it with a fresh
        copy (one vectorized ``memcpy``); the leased views keep observing
        exactly the snapshot they were handed.  Only the store's writer path
        calls this.
        """
        if self._leases:
            self._flat = self._flat.copy()
            self._leases = 0

    def mark_mutated(self) -> None:
        """Signal a completed write to readers that poll for changes.

        Nothing to do on the heap — its readers read the store's shard
        stamps; the shared-memory shard bumps a counter other processes
        can see.
        """

    # ------------------------------------------------------------------
    # Writes (call ``materialize`` first)
    # ------------------------------------------------------------------
    def write(self, name: str, value: np.ndarray) -> None:
        """Overwrite one entry in place (shape-checked)."""
        segment = self.layout.segment(name)
        value = np.asarray(value, dtype=self._dtype)
        if value.shape != segment.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: {segment.shape} vs {value.shape}"
            )
        self._flat[segment.lo : segment.hi] = value.ravel()

    def pack_runs(self, gradients: Mapping[str, np.ndarray]) -> list[tuple[int, int, np.ndarray]]:
        """Pack a gradient dictionary into the fewest contiguous runs.

        Entries adjacent in the layout merge into one ``(lo, hi, grad)``
        run whose ``grad`` is a slice of a pooled scratch buffer (safe for
        the optimizer to mutate; overwritten by the next pack).  A
        full-model push — the common case, precomputed at construction —
        collapses into a single run covering the whole weight block.  Each
        gradient is cast into place during the one packing copy (no
        intermediate conversion arrays).  Shape mismatches raise
        ``ValueError``, unknown names ``KeyError``.
        """
        if len(gradients) == len(self._full_segments):
            # A push naming every weight exactly matches the full layout
            # (names are validated below while packing).
            segments = self._full_segments
        else:
            segments = sorted(
                (self.layout.segment(name) for name in gradients),
                key=lambda segment: segment.lo,
            )
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = np.empty(
                self.layout.weights_end, dtype=self._dtype
            )
        runs: list[tuple[int, int, np.ndarray]] = []
        index = 0
        total = len(segments)
        while index < total:
            start = index
            while index + 1 < total and segments[index + 1].lo == segments[index].hi:
                index += 1
            lo, hi = segments[start].lo, segments[index].hi
            for segment in segments[start : index + 1]:
                grad = gradients[segment.name]  # KeyError on unknown names
                if getattr(grad, "shape", None) != segment.shape:
                    grad = np.asarray(grad)
                    if grad.shape != segment.shape:
                        raise ValueError(
                            f"gradient shape {grad.shape} does not match weight "
                            f"shape {segment.shape} for parameter {segment.name!r}"
                        )
                scratch[segment.lo : segment.hi] = grad.reshape(-1)
            runs.append((lo, hi, scratch[lo:hi]))
            index += 1
        return runs

    def make_update(self, gradients: Mapping[str, np.ndarray]) -> FlatUpdate:
        """Build the :class:`FlatUpdate` applying ``gradients`` to this shard."""
        return FlatUpdate(
            key=self.key,
            weights=self._flat,
            velocity_size=self.layout.weights_end,
            layout=self.layout.weight_segments,
            runs=self.pack_runs(gradients),
        )

    def make_flat_update(self, flat_gradient) -> FlatUpdate:
        """Build the update for an already-packed full-shard gradient.

        ``flat_gradient`` must cover the whole weight block in layout order
        (workers with a packed replica accumulate it directly — see
        :meth:`repro.ps.worker.Worker.attach_flat_layout`).  No gathering,
        no scratch: the single run aliases the caller's buffer, which the
        optimizer treats as read-only.  A ``sparse`` encoded payload
        (:class:`repro.ps.compression.EncodedShard`) becomes one sparse run,
        its indices checked here because they come off the wire.
        """
        end = self.layout.weights_end
        if not isinstance(flat_gradient, np.ndarray):
            indices, values = flat_gradient.arrays
            in_order = indices.size == 0 or (
                indices[0] >= 0 and indices[-1] < end and (indices[1:] > indices[:-1]).all()
            )
            if flat_gradient.size != end or indices.size != values.size or not in_order:
                raise ValueError(
                    f"sparse gradient needs sorted unique indices into {end} elements"
                )
            flat_gradient = (indices, values)
        elif flat_gradient.ndim != 1 or flat_gradient.size != end:
            raise ValueError(
                f"flat gradient must be a 1-D array of {end} elements, "
                f"got shape {flat_gradient.shape}"
            )
        return FlatUpdate(
            key=self.key,
            weights=self._flat,
            velocity_size=end,
            layout=self.layout.weight_segments,
            runs=[(0, end, flat_gradient)],
        )
