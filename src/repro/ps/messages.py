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
        The worker-side time of the push (wall-clock seconds in the process
        and tcp runtimes, virtual seconds in the simulator).
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

    The mappings hold the entries of the shards that moved since the
    requesting worker's ``known_version`` (every entry for a worker that
    knows nothing); loading them on top of the worker's current replica
    reconstructs the state at ``version``.

    ``flat_weights`` optionally carries the same weight payload as
    ``weights`` packed one-buffer-per-shard; it is an alternative encoding,
    not extra data.
    """

    weights: Mapping[str, np.ndarray]
    buffers: Mapping[str, np.ndarray]
    version: int
    #: Bytes this reply moves over the pull path, precomputed by its
    #: builder so per-worker transfer accounting never walks the lazy
    #: snapshot mappings.
    wire_nbytes: int
    flat_weights: tuple[FlatPullPayload, ...] = ()
    #: Store-provided hook dropping the copy-on-write leases this reply
    #: holds.  Call it (or :meth:`release`) once the payload has been copied
    #: out; no view or payload of this reply may be touched afterwards.
    release_fn: Callable[[], None] | None = None

    def release(self) -> None:
        """Declare the reply consumed: its snapshot leases are dropped.

        In the canonical *pull → load into replica → push* loop this is what
        makes pulls genuinely free — the store skips the copy-on-write copy
        it would otherwise pay on the next update.  After calling this, no
        array obtained from the reply may be read again.
        """
        if self.release_fn is not None:
            self.release_fn()


@dataclass(frozen=True)
class WorkerReport:
    """End-of-run summary a worker hands back to the coordinator (by
    default: of a worker that never reported)."""

    worker_id: str
    iterations: int = 0
    samples_processed: int = 0
    total_wait_time: float = 0.0
    total_compute_time: float = 0.0
    mean_loss: float = float("nan")
    #: Gradient bytes this worker actually shipped to the server (encoded
    #: size when a push codec is active, dense size otherwise).
    pushed_wire_bytes: int = 0
    #: Dense (uncompressed) size of the same pushed gradients — the
    #: denominator of the run's compression ratio.
    pushed_raw_bytes: int = 0
    #: Bytes received over the pull path (each OK counts only the shards
    #: that moved since the worker's base).
    pulled_bytes: int = 0
