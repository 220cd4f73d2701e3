"""Multi-process parameter-server runtime: one OS process per worker.

The threaded runtime (:mod:`repro.ps.runtime`) is genuinely concurrent but
GIL-bound: its workers interleave on one interpreter, so compute throughput
tops out near a single core no matter how many workers the spec names.  This
runtime spawns **real processes** — one per worker plus one server — and
keeps the hot path as flat as the thread version:

* **Pulls** never touch a pipe.  Each shard's packed buffer lives in a
  shared-memory segment (:mod:`repro.ps.shm`); a worker leases the current
  copy-on-write slot, copies it straight into its packed replica (one
  vectorized copy per *changed* shard), and releases the lease.
* **Pushes** use the pipe only as a control plane.  Each worker's packed
  gradient buffer is itself a shared segment (the replica's ``grad`` views
  are rebound into it by :meth:`repro.ps.worker.Worker.attach_flat_layout`),
  so the push message carries a few scalars and the server applies the
  update by reading the worker's memory directly.
* **The server process** runs the shared
  :class:`~repro.ps.session.ServerLoop` over a pipe hub, the server end of
  the worker pipes.  An OK is one token on the worker's
  ``multiprocessing.Semaphore`` (one futex operation each way, no
  pickling), a shared ``Event`` flags aborts, and the start line is a
  ``multiprocessing.Barrier`` so wall-clock timing begins only once every
  process has finished its (comparatively slow) setup.

Determinism and fidelity: every process uses the same build of the
registered workload (a ``fork`` child inherits the coordinator's, a
``spawn`` child builds the same bytes) and builds its pieces with the
recipes of :mod:`repro.ps.plan`, so dataset, partitioning and replica
initialization are byte-identical to what
:meth:`repro.ps.runtime.ThreadedTrainer.from_plan` builds for the threaded
runtime — one spec trains the same model on either substrate.

Failure handling: a worker that raises reports the error over its pipe; a
worker that *dies* is noticed as EOF on its pipe (or as a barrier timeout
during setup).  The server aborts the remaining workers, the coordinator
reaps every child, and the shared segments are unlinked in a ``finally``
block: crashes never leak ``/dev/shm`` entries (pinned by
``tests/ps/test_process_runtime.py``).  The one unprotected window is a
process dying while *holding* a shard lock (microseconds per operation);
like the threaded runtime's lock, that is trusted code, not a failure
domain the protocol defends against.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np

from repro.ps.compression import read_encoded, write_encoded
from repro.ps.plan import WorkloadPlan, build_server, plan_codec
from repro.ps.result import RunResult
from repro.ps.session import Resume, ServerEvent, ServerLoop, WorkerLoop
from repro.ps.sharding import partition_state
from repro.ps.transport import ConnectionClosed, PipeConnection
from repro.ps.shm import (
    SharedFlatStore,
    SharedSegment,
    SharedStoreHandle,
    ShmStoreClient,
    create_shared_store,
)
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

__all__ = [
    "ProcessTrainingPlan",
    "ProcessTrainer",
    "default_context_name",
]

_LOGGER = get_logger("ps.process_runtime")


def default_context_name() -> str:
    """Multiprocessing start method the runtime uses by default.

    ``fork`` where the platform offers it (fast startup, inherits the warm
    interpreter), else ``spawn``.  Overridable per run via the
    ``REPRO_PROCESS_CONTEXT`` environment variable or
    :class:`ProcessTrainer`'s ``context`` argument; everything the children
    receive is picklable, so either method works.
    """
    override = os.environ.get("REPRO_PROCESS_CONTEXT", "").strip().lower()
    if override:
        return override
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def resolve_context(context=None):
    """A multiprocessing context from a context, a start-method name or ``None``."""
    if context is None or isinstance(context, str):
        return multiprocessing.get_context(context or default_context_name())
    return context


def reap(processes) -> None:
    """Join every child, terminating the ones that do not exit."""
    for process in processes:
        process.join(timeout=5.0)
    for process in processes:
        if process.is_alive():  # pragma: no cover - hard-abort path
            process.terminate()
            process.join(timeout=5.0)


class ProcessTrainingPlan(WorkloadPlan):
    """Picklable description of one multi-process training run.

    Everything in :class:`~repro.ps.plan.WorkloadPlan`.  Pushed gradients
    travel through per-worker shared-memory mailboxes; with a
    ``compression`` codec a mailbox shrinks to the codec's worst-case
    *encoded* frame size and carries self-describing frames the server
    parses zero-copy.  No push crosses a connection, so ``net_faults`` are
    refused (the tcp backend injects every kind).  Injected crashes
    (``faults``) leave gracefully: the worker announces its death over the
    pipe and exits, so membership re-bounds elastically, unlike the hard
    ``crash_at`` test hooks, which exercise the unannounced-death protocol
    windows.
    """


# ----------------------------------------------------------------------
# Gradient mailboxes
# ----------------------------------------------------------------------
def _mailbox(handle: SharedStoreHandle, segment: SharedSegment, codec) -> dict[int, np.ndarray]:
    """Per-shard regions of one worker's gradient mailbox segment.

    The mailbox packs one region per shard back to back in shard order;
    both the worker (writer) and the server (reader) slice it with this one
    function, so the two sides can never disagree on offsets.  Without a
    codec a region is the shard's packed float64 gradient block (an empty
    shard gets none).  With one it holds the codec's worst-case encoded
    frame as bytes; capacities are 8-byte multiples, keeping every region's
    int64 frame header aligned.  Slicing a too-small segment raises, so a
    sizing mismatch fails at attach time, not mid-push.
    """
    regions: dict[int, np.ndarray] = {}
    offset = 0
    for spec in handle.shard_specs:
        size = spec.build_layout().weights_end
        if codec is not None:
            regions[spec.index] = segment.ndarray(
                np.uint8, codec.max_encoded_nbytes(size), offset=offset
            )
            offset += regions[spec.index].nbytes
        elif size:
            regions[spec.index] = segment.ndarray(np.float64, size, offset=offset)
            offset += regions[spec.index].nbytes
    return regions


def _codec_mailbox_nbytes(plan, initial_weights, initial_buffers, codec) -> int:
    """Total mailbox bytes for codec-framed pushes (one region per shard).

    Partitions with :func:`~repro.ps.sharding.partition_state`, as
    :func:`~repro.ps.shm.create_shared_store` does, so these capacities
    match the regions :func:`_mailbox` later slices out of the created
    segments.
    """
    parts = partition_state(
        initial_weights, initial_buffers, plan.num_shards, plan.shard_strategy, plan.dtype
    )
    totals = [sum(np.asarray(value).size for value in weights.values()) for weights, _ in parts]
    return sum(codec.max_encoded_nbytes(int(total)) for total in totals)


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _close_unrelated(conns) -> None:
    """Close pipe ends this child does not own.

    Under the ``fork`` start method every child inherits a copy of *every*
    file descriptor the coordinator held at fork time.  A pipe only delivers
    EOF once the last copy of its write end closes, so a crashed worker
    would go unnoticed while its siblings still hold inherited duplicates —
    each child therefore closes everything but its own connections first.
    (Under ``spawn`` these are explicitly-passed duplicates; closing them is
    equally correct.)
    """
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class _PipeHub:
    """The server end of the worker pipes: the :class:`ServerLoop` hub.

    Messages arrive on each worker's pipe; an OK is one token on the
    worker's semaphore, an abort sets the shared event and wakes everyone.
    A push's gradient sits in the worker's shared mailbox.  EOF is a
    failure, as is a reported error: a worker dying inside the
    shared-memory store cannot be declared harmless from here.
    """

    def __init__(self, plan, handle, store, conns, mailboxes, oks, abort) -> None:
        self._store, self._abort = store, abort
        self._oks = dict(zip(plan.worker_ids, oks))
        self._conns = dict(zip(map(PipeConnection, conns), plan.worker_ids))
        codec = plan_codec(plan)
        self._codec = codec.name if codec is not None else None
        self._mailboxes = {
            worker_id: _mailbox(handle, segment, codec)
            for worker_id, segment in zip(plan.worker_ids, mailboxes)
        }
        self._loop = None

    def attach(self, loop) -> None:
        self._loop = loop
        for conn, worker_id in self._conns.items():
            loop.watch(conn, worker_id)

    def receive(self, ready):
        for conn, worker_id in ready:
            try:
                header, payload = conn.recv()
            except ConnectionClosed:
                self._loop.forget(conn)
                yield worker_id, "failure", {"reason": "process died (connection lost)"}, None
                continue
            kind = header["type"]
            if kind == "push":
                payload = self._gradients(worker_id, header)
            else:  # done, leave and error are a worker's last word
                self._loop.forget(conn)
            if kind == "error":
                header["reason"] = header["message"]
            yield worker_id, _PIPE_KINDS.get(kind, kind), header, payload

    def _gradients(self, worker_id, message) -> dict:
        """A push's gradient keywords, read out of the worker's mailbox."""
        message["codec"] = self._codec
        mailbox = self._mailboxes[worker_id]
        if self._codec is None:
            return {"flat": mailbox, "buffers": message["buffers"]}
        # Self-describing frames, parsed zero-copy.
        encoded = tuple(read_encoded(mailbox[shard], shard) for shard in sorted(mailbox))
        return {"encoded": encoded, "buffers": message["buffers"]}

    def ok(self, worker_id) -> None:
        self._oks[worker_id].release()

    def abort(self, reason) -> None:
        # Wake every worker out of its OK wait; the abort event tells it
        # the token is a shutdown, not a release.
        self._abort.set()
        for ok in self._oks.values():
            ok.release()

    def waiting(self) -> bool:
        return False

    def statistics(self) -> dict:
        return {"cow_fallbacks": self._store.cow_fallbacks}


#: Pipe message kinds as :class:`ServerLoop` events: an announced leave
#: (an injected crash) departs elastically.
_PIPE_KINDS = {"leave": "departure", "error": "failure"}


def _server_main(
    plan, handle, conns, result_conn, barrier, oks, abort, unrelated=()
) -> None:
    """Entry point of the server process.

    Runs the :class:`~repro.ps.session.ServerLoop` over the shared-memory
    store and the worker pipes.  The initial model is evaluated before the
    start barrier, so setup cost stays out of the curve.
    """
    _close_unrelated(unrelated)
    store = None
    mailboxes: list[SharedSegment] = []
    try:
        store = SharedFlatStore(handle, writer=True)
        session = build_server(plan, store, plan.build_workload())
        for worker_id in plan.worker_ids:
            session.dispatch(ServerEvent(worker_id, "join"))
        for name in handle.grad_segments:
            mailboxes.append(SharedSegment.attach(name))
        hub = _PipeHub(plan, handle, store, conns, mailboxes, oks, abort)
        session.evaluate(0.0)
        barrier.wait(timeout=plan.wait_timeout)
        session.start()
        result_conn.send(ServerLoop(session, hub).run())
    except Exception as error:  # noqa: BLE001 - the coordinator must hear about it
        _LOGGER.exception("server process failed")
        try:
            result_conn.send(RunResult.failed(f"server: {error}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        for segment in mailboxes:
            segment.close()
        if store is not None:
            store.close()
        result_conn.close()


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _ProcessLink:
    """One worker process's link: pipe out, OK semaphore in, pulls from shm.

    Pushes use the pipe as a control plane only; the OK is one semaphore
    token; pulls lease the store's current copy-on-write slot straight out
    of shared memory.  The replica's gradient side lives in this worker's
    shared mailbox, so the push message carries scalars.
    """

    layouts = gradient_buffers = None

    def __init__(self, plan, handle, index, conn, barrier, ok, abort) -> None:
        self._plan, self._handle, self._index = plan, handle, index
        self._conn, self._barrier, self._ok, self._abort = conn, barrier, ok, abort
        self._client = self._mailbox = None
        self._regions: dict[int, np.ndarray] = {}

    def open(self) -> Resume:
        plan, handle = self._plan, self._handle
        self.layouts = tuple(
            (spec.index, spec.build_layout().weight_segments)
            for spec in handle.shard_specs
        )
        self._mailbox = SharedSegment.attach(handle.grad_segments[self._index])
        codec = plan_codec(plan)
        self._regions = _mailbox(handle, self._mailbox, codec)
        if codec is None:
            # The replica's gradients live in the mailbox.  With a codec the
            # replica keeps private gradient buffers and the encoder writes
            # frames into the mailbox after each backward pass.
            self.gradient_buffers = self._regions
        self._client = ShmStoreClient(handle)
        return Resume(0, self._client.pull_reply())

    def ready(self, worker) -> bool:
        self._barrier.wait(timeout=self._plan.wait_timeout)
        return True

    def push(self, header, computation, flat, encoded) -> bool:
        if self._abort.is_set():
            return False
        # A dense gradient already sits in the mailbox; a codec's frames go there now.
        for frame in encoded or ():
            write_encoded(frame, self._regions[frame.shard])
        self._conn.send(
            {
                "type": "push",
                "base_version": header["base_version"],
                "timestamp": header["timestamp"],
                "loss": header["loss"],
                "samples": header["samples"],
                "buffers": dict(computation.buffers) or None,
            }
        )
        return True

    def await_ok(self, timeout: float):
        if not self._ok.acquire(timeout=timeout):
            raise TimeoutError(f"waited more than {timeout:.0f}s for the OK signal")
        if self._abort.is_set():
            return None
        return self._client.pull_reply()

    def leave(self, clock: int, rejoin_after=None) -> None:
        # Announce the death so the server can deregister elastically; the
        # process then exits without a report.
        self._conn.send({"type": "leave", "clock": clock})

    def done(self, report: dict, profile) -> None:
        self._conn.send({"type": "done", "report": report}, profile)

    def error(self, message: str) -> None:
        try:
            self._conn.send({"type": "error", "message": message})
        except (BrokenPipeError, ConnectionError, OSError):
            pass

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
        if self._mailbox is not None:
            self._mailbox.close()
        self._conn.close()


def _worker_main(plan, handle, index, conn, barrier, ok, abort, unrelated=()) -> None:
    """Entry point of one worker process: the step protocol over a pipe link."""
    _close_unrelated(unrelated)
    link = _ProcessLink(plan, handle, index, PipeConnection(conn), barrier, ok, abort)
    try:
        WorkerLoop.from_plan(plan, index, link).run()
    finally:
        link.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class ProcessTrainer:
    """Coordinates one multi-process training run from the calling process.

    Mirrors :class:`repro.ps.runtime.ThreadedTrainer`'s role: build the
    shared substrate, launch the children, collect one
    :class:`~repro.ps.result.RunResult`.  The coordinator itself does no
    training work — after the start barrier it only waits for the server's
    result, reaps children, and guarantees segment cleanup.
    """

    def __init__(self, plan: ProcessTrainingPlan, context=None) -> None:
        """Create a trainer for ``plan``.

        ``context`` is a multiprocessing context or start-method name;
        defaults to :func:`default_context_name`.
        """
        self.plan = plan
        self.context = resolve_context(context)

    def run(self) -> RunResult:
        """Run the training to completion and return the collected results.

        Always returns a result — child failures surface in
        ``result.errors``, never as a hang: every blocking wait in the
        system carries the plan's ``wait_timeout``.
        """
        plan = self.plan
        workload = plan.build_workload()
        streams = RngStream(plan.seed)
        global_model = workload.model_builder(streams.get("init"))
        initial_weights = {
            name: parameter.data
            for name, parameter in global_model.named_parameters()
        }
        initial_buffers = global_model.buffers()
        codec = plan_codec(plan)
        grad_mailbox_nbytes = None
        if codec is not None:
            grad_mailbox_nbytes = _codec_mailbox_nbytes(
                plan, initial_weights, initial_buffers, codec
            )
        handle = create_shared_store(
            initial_weights=initial_weights,
            initial_buffers=initial_buffers,
            num_shards=plan.num_shards,
            strategy=plan.shard_strategy,
            dtype=plan.dtype,
            slots=plan.num_workers + 2,
            context=self.context,
            grad_mailboxes=plan.num_workers,
            grad_mailbox_nbytes=grad_mailbox_nbytes,
        )

        processes = []
        try:
            barrier = self.context.Barrier(plan.num_workers + 1)
            abort = self.context.Event()
            oks = tuple(self.context.Semaphore(0) for _ in range(plan.num_workers))
            result_recv, result_send = self.context.Pipe(duplex=False)
            server_conns = []
            worker_conns = []
            for _ in range(plan.num_workers):
                # One-directional: workers only send (pushes, done, errors);
                # releases travel back through the OK semaphores.
                server_end, worker_end = self.context.Pipe(duplex=False)
                server_conns.append(server_end)
                worker_conns.append(worker_end)

            server = self.context.Process(
                target=_server_main,
                args=(
                    plan,
                    handle,
                    server_conns,
                    result_send,
                    barrier,
                    oks,
                    abort,
                    (*worker_conns, result_recv),
                ),
                name="repro-server",
                daemon=True,
            )
            processes.append(server)
            for index in range(plan.num_workers):
                unrelated = (
                    *server_conns,
                    *(c for i, c in enumerate(worker_conns) if i != index),
                    result_send,
                    result_recv,
                )
                processes.append(
                    self.context.Process(
                        target=_worker_main,
                        args=(
                            plan,
                            handle,
                            index,
                            worker_conns[index],
                            barrier,
                            oks[index],
                            abort,
                            unrelated,
                        ),
                        name=f"repro-worker-{index}",
                        daemon=True,
                    )
                )
            for process in processes:
                process.start()
            # Close the coordinator's copies so EOF propagates to the server
            # when a worker dies (and vice versa).
            result_send.close()
            for conn in (*server_conns, *worker_conns):
                conn.close()

            return self._await_result(result_recv, server)
        finally:
            reap(processes)
            handle.unlink_all()

    def _await_result(self, result_recv, server) -> RunResult:
        """Wait for the server's result, tolerating a dead server process.

        No absolute deadline here: a healthy run may take arbitrarily long,
        and the *server* already aborts itself when no worker makes progress
        for ``wait_timeout`` seconds.  The coordinator only needs to notice
        the server dying without a result.
        """
        while True:
            # Liveness is read before the poll, so a result that raced the
            # server's exit is still picked up by one final poll.
            alive = server.is_alive()
            if result_recv.poll(0.25):
                try:
                    return result_recv.recv()
                except (EOFError, OSError):
                    break
            if not alive:
                break
        return RunResult.failed(
            "server process died without reporting a result"
        )
