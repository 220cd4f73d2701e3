"""The parameter server: weight updates plus synchronization decisions.

The server is deliberately free of threads, I/O and clocks — it is a state
machine driven by push events — so the exact same object serves every
backend through :class:`repro.ps.session.ServerSession`: the three
wall-clock runtimes and the discrete-event simulator
(:mod:`repro.simulation.trainer`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.policy import SynchronizationPolicy
from repro.core.staleness import StalenessTracker
from repro.optim.optimizer import Optimizer
from repro.ps.aggregation import Aggregator
from repro.ps.compression import decode_shard
from repro.ps.faults import FaultInjector
from repro.ps.messages import PullReply, PushRequest
from repro.ps.sharding import ShardedKeyValueStore
from repro.utils.logging import get_logger

__all__ = ["AppliedPush", "PushResponse", "ParameterServer", "decode_push"]

_LOGGER = get_logger("ps.server")


@dataclass(frozen=True)
class AppliedPush:
    """Outcome of the storage half of a push (gradient already applied).

    Produced by :meth:`ParameterServer.apply_push` and consumed by
    :meth:`ParameterServer.finish_push`.  Splitting the two lets a
    concurrent runtime apply gradients under the store's own (per-shard)
    locks while serializing only the policy decision.
    """

    worker_id: str
    new_version: int
    staleness: int
    #: The store applied exactly what the push's frames decode to, as its
    #: own update (no injected corruption, no aggregation window, no buffers).
    verbatim: bool = False


@dataclass(frozen=True)
class PushResponse:
    """Outcome of handling one push request.

    ``release_now`` tells the runtime whether the pushing worker gets its OK
    immediately; ``released_workers`` lists previously blocked workers whose
    wait condition became satisfied by this push (they must also be sent OK).
    """

    worker_id: str
    release_now: bool
    released_workers: tuple[str, ...]
    new_version: int
    staleness: int
    used_extra_credit: bool

    @property
    def to_release(self) -> tuple[str, ...]:
        """Every worker this push sends an OK to (the pusher last, if at all)."""
        if self.release_now:
            return (*self.released_workers, self.worker_id)
        return self.released_workers


def decode_push(encoded, pool: dict, sparse: bool) -> dict:
    """Decode codec-compressed shard payloads into flat gradients.

    Dense payloads decode zero-copy (the ``none`` codec hands the server
    the very array the worker packed, keeping that path bit-for-bit
    identical to an uncompressed push); sparse/quantized payloads decode
    into ``pool`` (shard → float64 scratch), so steady-state pushes stay
    allocation-free.  With ``sparse`` (the applying optimizer's
    ``sparse_runs``) a sparse payload stays as it is: the store turns it
    into a sparse run and no scratch is ever allocated.  A worker's mirror
    replays logged pushes through this too, with its own optimizer's answer
    — the same one, so both sides run the same kernel on the same entry.
    """
    flat_gradients: dict = {}
    for payload in encoded:
        if sparse and payload.scheme == "sparse":
            flat_gradients[payload.shard] = payload
        elif payload.scheme == "dense":
            flat_gradients[payload.shard] = decode_shard(payload)
        else:
            scratch = pool.get(payload.shard)
            if scratch is None or scratch.size != payload.size:
                scratch = pool[payload.shard] = np.empty(payload.size, dtype=np.float64)
            flat_gradients[payload.shard] = decode_shard(payload, out=scratch)
    return flat_gradients


class ParameterServer:
    """Applies pushed gradients and enforces a synchronization paradigm."""

    def __init__(
        self,
        store: ShardedKeyValueStore,
        optimizer: Optimizer,
        policy: SynchronizationPolicy,
        gradient_scale: float | None = None,
        learning_rate_schedule=None,
        aggregator: Aggregator | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        """Create a server.

        Parameters
        ----------
        store:
            Key-value store holding the global weights.
        optimizer:
            Server-side update rule applied to every push.
        policy:
            Synchronization paradigm (BSP/ASP/SSP/DSSP).
        gradient_scale:
            Factor multiplied into every pushed gradient before the update.
            Defaults to ``1 / num_workers`` once workers are registered, which
            makes one *round* of pushes from all workers equivalent to one
            large-batch update (the convention the paper's MXNet setup uses).
        learning_rate_schedule:
            Optional schedule object with a ``learning_rate(progress)``
            method; when set, :meth:`set_progress` adjusts the optimizer's
            learning rate (the paper decays the rate at fixed epochs).
        aggregator:
            Server-side combiner for pushed gradients
            (:mod:`repro.ps.aggregation`).  ``None`` or a non-buffered
            aggregator (``mean``) keeps the immediate-apply fast path:
            every push becomes one optimizer step the moment it arrives.
            A buffered aggregator stages the pushes of one clock window
            into pooled scratch and applies their robust combination as a
            single update.
        fault_injector:
            Optional chaos hook (:mod:`repro.ps.faults`): consulted on
            every push to corrupt byzantine workers' gradients and to
            collect the structured fault event log.
        """
        self.store = store
        self.optimizer = optimizer
        self.policy = policy
        self.staleness_tracker = StalenessTracker()
        self._gradient_scale = gradient_scale
        self._schedule = learning_rate_schedule
        self._registered_workers: list[str] = []
        self._pushes_handled = 0
        # Per-thread decode scratch for codec-compressed pushes: sharded
        # stores apply concurrent pushes from multiple runtime threads, so
        # a shared scratch would race.
        self._decode_scratch = threading.local()
        self.fault_injector = fault_injector
        self.aggregator = aggregator
        self._buffered = aggregator is not None and aggregator.buffered
        # Buffered-aggregation state: staged per-worker copies of the
        # window's pushes (pooled, reused across windows), the per-shard
        # combine scratch, and the lock serializing staging with flushes
        # (concurrent-apply stores call apply_push from many threads).
        self._agg_lock = threading.Lock()
        self._staged: "dict[str, dict[int, np.ndarray]]" = {}
        self._stage_pool: dict[str, dict[int, np.ndarray]] = {}
        self._combine_scratch: dict[int, np.ndarray] = {}
        self._windows_applied = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str, initial_clock: int = 0) -> None:
        """Register a worker with both the server and the policy.

        ``initial_clock`` is the elastic-membership hook: a worker joining
        mid-run registers at the cluster's current slowest clock, and a
        worker rejoining after a server restart resumes at its checkpointed
        clock.
        """
        if worker_id in self._registered_workers:
            raise ValueError(f"worker {worker_id!r} already registered")
        self._registered_workers.append(worker_id)
        self.policy.register_worker(worker_id, initial_clock)

    def deregister_worker(self, worker_id: str) -> tuple[str, ...]:
        """Remove a worker (left, finished, or died) and re-bound the policy.

        Returns previously blocked workers whose wait condition became
        satisfied by the membership change — the runtime must send them OK,
        exactly as it does for :attr:`PushResponse.released_workers`.
        """
        if worker_id not in self._registered_workers:
            raise KeyError(f"worker {worker_id!r} is not registered")
        self._registered_workers.remove(worker_id)
        self.policy.deregister_worker(worker_id)
        released = tuple(self.policy.pop_releasable())
        if self._buffered:
            # The departed worker's staged push (if any) still counts; what
            # shrank is the window target.  Flush when the staged set now
            # covers every remaining worker — including the case where the
            # last worker left and the tail window must be applied.
            with self._agg_lock:
                self._stage_pool.pop(worker_id, None)
                if self._staged and len(self._staged) >= max(self.num_workers, 1):
                    self._flush_window_locked()
        _LOGGER.debug("deregistered %s: unblocked=%s", worker_id, released)
        return released

    @property
    def worker_ids(self) -> list[str]:
        """Registered workers in registration order."""
        return list(self._registered_workers)

    @property
    def num_workers(self) -> int:
        """Number of registered workers."""
        return len(self._registered_workers)

    @property
    def pushes_handled(self) -> int:
        """Total number of push requests processed."""
        return self._pushes_handled

    def gradient_scale(self) -> float:
        """Scale applied to pushed gradients (default ``1 / num_workers``)."""
        if self._gradient_scale is not None:
            return self._gradient_scale
        return 1.0 / max(self.num_workers, 1)

    # ------------------------------------------------------------------
    # Training-time interface
    # ------------------------------------------------------------------
    def set_progress(self, progress: float) -> None:
        """Update the learning rate from the schedule given training progress.

        ``progress`` is measured in epochs (total samples processed divided
        by the training-set size), matching how the paper schedules decay.
        """
        if self._schedule is None:
            return
        self.optimizer.learning_rate = self._schedule.learning_rate(progress)

    def acknowledge_duplicate(self, request: PushRequest) -> PushResponse:
        """Acknowledge a retransmitted push without re-applying it.

        The exactly-once path of sequence-numbered transports: the runtime
        detected (via its per-worker watermark) that this push already
        landed, so weights, optimizer state, buffers and the staleness
        tracker stay untouched — but the policy clock still advances,
        because the worker's *progress* is real and its wait condition
        (and those of its peers) must resolve exactly as they did for the
        original delivery.
        """
        if request.worker_id not in self._registered_workers:
            raise KeyError(f"push from unregistered worker {request.worker_id!r}")
        outcome = self.policy.on_push(request.worker_id, request.timestamp)
        released = tuple(self.policy.pop_releasable())
        _LOGGER.debug(
            "duplicate push from %s (seq=%s): release=%s unblocked=%s",
            request.worker_id, request.seq, outcome.release, released,
        )
        return PushResponse(
            worker_id=request.worker_id,
            release_now=outcome.release,
            released_workers=released,
            new_version=self.store.version,
            staleness=0,
            used_extra_credit=outcome.used_extra_credit,
        )

    def apply_push(self, request: PushRequest) -> AppliedPush:
        """Storage half of a push: apply the gradient, measure staleness.

        Safe to call without external locking when the store applies
        gradients under its own locks (``store.supports_concurrent_apply``);
        pushes whose gradient keys live on disjoint shards then proceed in
        parallel.  The matching :meth:`finish_push` call must still be
        serialized with all other policy interactions.
        """
        if request.worker_id not in self._registered_workers:
            raise KeyError(f"push from unregistered worker {request.worker_id!r}")
        if request.base_version > self.store.version:
            raise ValueError(
                "push base_version is newer than the store version "
                f"({request.base_version} > {self.store.version})"
            )

        flat_gradients, encoded = request.flat_gradients, request.encoded_gradients
        # Sparse frames stay sparse wherever the update is the frames' own:
        # a pure function of (frames, optimizer), so a mirror replaying the
        # logged push takes the same kernel.  A buffered window is dense,
        # and so is what a fault injector looks at to decide.
        sparse = self.optimizer.sparse_runs and not self._buffered
        if encoded is not None:
            flat_gradients = self._decode_push(
                encoded, sparse and self.fault_injector is None
            )
        verbatim = encoded is not None and not request.buffers
        if self.fault_injector is not None:
            corrupted = self.fault_injector.corrupt_push(
                request.worker_id, flat_gradients
            )
            if corrupted is not None:
                flat_gradients, verbatim = corrupted, False
            elif encoded is not None and sparse:
                flat_gradients = self._decode_push(encoded, True)
        if self._buffered:
            applied = self._stage_push(request, flat_gradients)
        else:
            new_version = self.store.apply_gradients(
                request.gradients,
                self.optimizer,
                scale=self.gradient_scale(),
                flat_gradients=flat_gradients,
            )
            # Staleness is measured against the *global* version regardless
            # of sharding: how many updates landed between the worker's pull
            # and the version its own update produced.
            applied = AppliedPush(
                worker_id=request.worker_id,
                new_version=new_version,
                staleness=new_version - 1 - request.base_version,
                verbatim=verbatim,
            )
        if request.buffers:
            self.store.update_buffers(request.buffers)
        return applied

    def _decode_push(self, encoded, sparse: bool) -> dict:
        """Decode a push into this thread's pooled scratch (:func:`decode_push`)."""
        pool = getattr(self._decode_scratch, "pool", None)
        if pool is None:
            pool = self._decode_scratch.pool = {}
        return decode_push(encoded, pool, sparse)

    # ------------------------------------------------------------------
    # Buffered aggregation
    # ------------------------------------------------------------------
    def _shard_sizes(self) -> dict[int, int]:
        """Weight-block element count per shard (what a full push carries)."""
        return {
            shard: (segments[-1].hi if segments else 0)
            for shard, segments in self.store.flat_layouts
        }

    def _stage_push(self, request: PushRequest, flat_gradients) -> AppliedPush:
        """Stage one push into the current clock window (buffered path).

        The pushed buffers are copied into pooled per-worker scratch — the
        dense push path aliases live worker memory — and the window is
        applied once every currently registered worker has contributed.  A
        worker lapping the window (ASP/SSP fast nodes) flushes the partial
        window first, so no contribution is ever overwritten.
        """
        sizes = self._shard_sizes()
        covered = flat_gradients is not None and all(
            size == 0
            or (
                flat_gradients.get(shard) is not None
                and flat_gradients[shard].size == size
            )
            for shard, size in sizes.items()
        )
        if not covered:
            raise ValueError(
                "buffered aggregation requires pushes carrying the full "
                "packed flat gradient of every shard"
            )
        worker_id = request.worker_id
        with self._agg_lock:
            if worker_id in self._staged:
                self._flush_window_locked()
            pool = self._stage_pool.setdefault(worker_id, {})
            staged: dict[int, np.ndarray] = {}
            for shard, size in sizes.items():
                if size == 0:
                    continue
                scratch = pool.get(shard)
                if scratch is None or scratch.size != size:
                    scratch = pool[shard] = np.empty(size, dtype=np.float64)
                np.copyto(scratch, flat_gradients[shard], casting="unsafe")
                staged[shard] = scratch
            self._staged[worker_id] = staged
            staleness = self.store.version - request.base_version
            if len(self._staged) >= max(self.num_workers, 1):
                self._flush_window_locked()
            return AppliedPush(
                worker_id=worker_id,
                new_version=self.store.version,
                staleness=staleness,
            )

    def _flush_window_locked(self) -> None:
        """Aggregate and apply the staged window (``_agg_lock`` held).

        Rows stack in sorted worker-id order so floating-point reduction
        order — and therefore the stored weights — is independent of
        runtime scheduling.  The combined gradient is applied with scale
        ``gradient_scale() * window_size``, which reduces to exactly one
        round's worth of mean updates under the default ``1/num_workers``
        scale.
        """
        if not self._staged:
            return
        order = sorted(self._staged)
        combined: dict[int, np.ndarray] = {}
        for shard, size in self._shard_sizes().items():
            if size == 0:
                continue
            stacked = np.stack([self._staged[worker][shard] for worker in order])
            out = self._combine_scratch.get(shard)
            if out is None or out.size != size:
                out = self._combine_scratch[shard] = np.empty(size, dtype=np.float64)
            combined[shard] = self.aggregator.combine(stacked, out)
        count = len(order)
        self._staged.clear()
        self.store.apply_gradients(
            {},
            self.optimizer,
            scale=self.gradient_scale() * count,
            flat_gradients=combined,
        )
        self._windows_applied += 1

    def flush_staged(self) -> None:
        """Apply any partially-filled window (end-of-run tail)."""
        if not self._buffered:
            return
        with self._agg_lock:
            self._flush_window_locked()

    def discard_staged(self, worker_id: str) -> bool:
        """Drop a dead worker's staged, not-yet-applied push.

        Called by the runtimes when a worker *dies* (as opposed to
        finishing): its staged contribution may be the very corruption a
        robust aggregator exists to reject.  Returns whether anything was
        dropped; the drop is recorded in the fault event log.
        """
        if not self._buffered:
            return False
        with self._agg_lock:
            dropped = self._staged.pop(worker_id, None) is not None
        if dropped and self.fault_injector is not None:
            self.fault_injector.record(
                "aggregator_rejection",
                worker_id,
                reason="worker died with a staged push",
            )
        return dropped

    def finish_push(self, request: PushRequest, applied: AppliedPush) -> PushResponse:
        """Synchronization half of a push: record staleness, consult policy."""
        self.staleness_tracker.record(applied.staleness)
        outcome = self.policy.on_push(request.worker_id, request.timestamp)
        released = tuple(self.policy.pop_releasable())
        self._pushes_handled += 1
        _LOGGER.debug(
            "push from %s: version=%d staleness=%d release=%s unblocked=%s",
            request.worker_id,
            applied.new_version,
            applied.staleness,
            outcome.release,
            released,
        )
        return PushResponse(
            worker_id=request.worker_id,
            release_now=outcome.release,
            released_workers=released,
            new_version=applied.new_version,
            staleness=applied.staleness,
            used_extra_credit=outcome.used_extra_credit,
        )

    # Only perfbench/layers.py still calls this; ROADMAP item 3(b) removes it.
    def handle_pull(self) -> PullReply:
        """A dense, zero-copy snapshot of the global weights."""
        return self.store.pull()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def statistics(self) -> dict:
        """Policy, store and aggregation counters for the run record."""
        stats = self.policy.statistics()
        stats["store_version"] = self.store.version
        stats["store_nbytes"] = int(self.store.nbytes)
        stats["learning_rate"] = self.optimizer.learning_rate
        if self.aggregator is not None:
            stats["aggregation"] = {
                "name": self.aggregator.name,
                "buffered": bool(self._buffered),
                "windows_applied": self._windows_applied,
            }
        return stats
