"""Message types exchanged between workers and the parameter server.

:class:`repro.ps.session.ServerSession` builds and consumes them on every
backend.  Keeping them as explicit dataclasses
(rather than ad-hoc tuples) documents the protocol the paper describes:
*push* carries gradients and the version of the weights they were computed
from, *OK* releases a worker, *pull* returns a snapshot of the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.ps.flatbuffer import Segment

__all__ = [
    "PushRequest",
    "FlatPullPayload",
    "PullReply",
    "WorkerReport",
]


@dataclass(frozen=True)
class PushRequest:
    """Gradient push from a worker to the server.

    Attributes
    ----------
    worker_id:
        Identifier of the pushing worker.
    gradients:
        Mapping of parameter name to gradient array (already averaged over
        the worker's mini-batch and local GPU replicas).
    base_version:
        The key-value store version from which the worker's local weights
        were pulled; the server uses it to measure update staleness.
    timestamp:
        The worker-side time of the push (wall-clock seconds in the threaded
        runtime, virtual seconds in the simulator).
    buffers:
        Optional non-trainable state (batch-norm statistics) to refresh on
        the server.
    local_loss:
        Training loss of the mini-batch, reported for monitoring.
    """

    worker_id: str
    gradients: Mapping[str, np.ndarray]
    base_version: int
    timestamp: float
    buffers: Mapping[str, np.ndarray] = field(default_factory=dict)
    local_loss: float | None = None
    #: Optional per-shard packed gradient buffers (shard index → flat array
    #: covering the shard's whole weight block in layout order).  Workers
    #: with a packed replica attach them so the server applies the push with
    #: zero gather work; ``gradients`` still carries the same values per
    #: name for validation and for stores that cannot use the fast path.
    flat_gradients: Mapping[int, np.ndarray] | None = None
    #: Optional codec-compressed per-shard payloads (one
    #: :class:`repro.ps.compression.EncodedShard` per shard, in shard
    #: order).  When present the server decodes them into the packed
    #: gradient the flat path applies; ``flat_gradients`` is then unset.
    encoded_gradients: tuple | None = None
    #: Name of the codec that produced ``encoded_gradients`` (metadata for
    #: logging/validation; decoding itself is codec-independent).
    codec: str | None = None
    #: Optional sequence number (the worker's iteration index).  Transports
    #: that can lose an OK mid-flight (the TCP runtime) attach it so the
    #: server's per-worker watermark dedups retransmissions: a retried push
    #: is applied exactly once.  ``None`` keeps the legacy at-most-once
    #: behaviour of in-process transports that cannot drop messages.
    seq: int | None = None


@dataclass(frozen=True)
class FlatPullPayload:
    """One shard's weights as a single packed buffer.

    ``buffer`` is a read-only view of the shard's contiguous weight block;
    ``layout`` names the segments inside it.  A worker whose replica is
    packed with the same layout (:meth:`repro.ps.worker.Worker.attach_flat_layout`)
    consumes the whole shard with one vectorized copy instead of one copy
    per named parameter.
    """

    shard: int
    buffer: np.ndarray
    layout: tuple[Segment, ...]


@dataclass(frozen=True)
class PullReply:
    """Snapshot of the global weights returned to a worker.

    When ``is_delta`` is true the mappings contain only the entries updated
    after the requesting worker's ``known_version``; loading them on top of
    the worker's current replica reconstructs the state at ``version``.

    ``flat_weights`` optionally carries the same weight payload as
    ``weights`` packed one-buffer-per-shard (full pulls from flat stores
    attach it); it is an alternative encoding, not extra data, so it does
    not count towards :attr:`nbytes`.
    """

    weights: Mapping[str, np.ndarray]
    buffers: Mapping[str, np.ndarray]
    version: int
    is_delta: bool = False
    flat_weights: tuple[FlatPullPayload, ...] = ()
    #: Store-provided hook dropping the copy-on-write leases this reply
    #: holds.  Call it (or :meth:`release`) once the payload has been copied
    #: out; no view or payload of this reply may be touched afterwards.
    release_fn: Callable[[], None] | None = None
    #: Bytes this reply moves over the pull path, precomputed by the store
    #: (a delta reply counts only the changed segments).  Stores set it so
    #: per-worker transfer accounting does not have to walk the lazy
    #: snapshot mappings; ``None`` falls back to :attr:`nbytes`.
    wire_nbytes: int | None = None

    def release(self) -> None:
        """Declare the reply consumed: its snapshot leases are dropped.

        In the canonical *pull → load into replica → push* loop this is what
        makes pulls genuinely free — the store skips the copy-on-write copy
        it would otherwise pay on the next update.  After calling this, no
        array obtained from the reply may be read again.
        """
        if self.release_fn is not None:
            self.release_fn()

    @property
    def nbytes(self) -> int:
        """Payload size of this reply (bytes moved over the pull path)."""
        total = sum(np.asarray(value).nbytes for value in self.weights.values())
        total += sum(np.asarray(value).nbytes for value in self.buffers.values())
        return int(total)

    def transfer_nbytes(self) -> int:
        """Bytes to charge the pull path for this reply.

        Prefers the store-provided :attr:`wire_nbytes` (O(1), and the only
        honest number for flat replies whose mappings are lazy views);
        falls back to walking the mappings for legacy constructors.
        """
        if self.wire_nbytes is not None:
            return int(self.wire_nbytes)
        return self.nbytes


@dataclass(frozen=True)
class WorkerReport:
    """End-of-run summary a worker hands back to the coordinator."""

    worker_id: str
    iterations: int
    samples_processed: int
    total_wait_time: float
    total_compute_time: float
    mean_loss: float
    #: Gradient bytes this worker actually shipped to the server (encoded
    #: size when a push codec is active, dense size otherwise).
    pushed_wire_bytes: int = 0
    #: Dense (uncompressed) size of the same pushed gradients — the
    #: denominator of the run's compression ratio.
    pushed_raw_bytes: int = 0
    #: Bytes received over the pull path (delta pulls count only changed
    #: segments).
    pulled_bytes: int = 0
