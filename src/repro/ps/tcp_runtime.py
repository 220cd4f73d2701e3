"""TCP parameter-server runtime: a standalone server, workers by address.

The process runtime (:mod:`repro.ps.process_runtime`) assumes everything
shares one machine and one coordinator: shared-memory pulls, semaphore OK
signals, a start barrier sized at launch.  This runtime drops all three
assumptions and speaks the length-prefixed socket protocol of
:mod:`repro.ps.transport` instead:

* **One server process** runs the shared
  :class:`~repro.ps.session.ServerLoop` (a one-shard store from
  :func:`~repro.ps.plan.build_store`) behind a listening socket; its
  hub, the server end of the links, owns accepts, ``join``/``welcome``,
  heartbeats, ``watch`` connections and the OK frames.  A message acts for
  the worker whose connection joined, whatever its header names.  The
  server can be started standalone (``python -m repro serve SPEC --bind
  host:port``) or self-hosted by :class:`TcpTrainer` on an ephemeral port.
* **Workers connect by address** and run the shared
  :class:`~repro.ps.session.WorkerLoop` over the connection.  A ``join``
  is answered with a ``welcome`` carrying the flat layout and the packed
  weights; every push is answered (eventually — the policy decides when)
  with an ``ok`` that piggybacks the pull, so one round trip covers push +
  pull.  On a codec run that pull is the **update log**: the encoded
  pushes the worker has not seen (its own it replays from the frames it
  kept), through its mirror of the server's update rule
  (:class:`repro.ps.session.Mirror`) — bit for bit
  the weights a dense pull carries.  A span the log cannot bridge, and
  every reply of a run without a codec, gets the dense weights.
  Gradients travel as the same self-describing frames the shared-memory
  mailboxes use — codec-encoded pushes go from worker memory onto the wire
  unchanged, and the ``none``/uncoded path stays bit-for-bit dense.
* **Membership is elastic.**  Workers may join and leave mid-run: a late
  joiner registers at the cluster's slowest clock, a worker that finishes
  or dies (heartbeat timeout, EOF — including mid-push — or a reported
  error) is deregistered, the SSP/DSSP staleness bound is recomputed over
  the remaining membership, and every worker whose wait condition that
  satisfies gets its OK.  The
  run continues and still converges; the death is recorded in
  ``result.errors``.
* **The server is restartable.**  On SIGTERM it checkpoints atomically
  (weights, optimizer state, per-worker clocks, codec error-feedback
  residuals — :mod:`repro.ps.checkpoint`), tells connected workers to
  reconnect, and exits.  A new server restores the checkpoint; rejoining
  workers are resumed at their checkpointed clock, rebuild their data
  stream deterministically (``MiniBatchLoader.skip``) and recompute the
  few iterations the checkpoint had not yet absorbed — with the ``none``
  codec and a single worker the restarted run is bit-for-bit identical to
  an uninterrupted one.

Wire protocol (JSON header + zero-copy frames; see
:class:`repro.ps.transport.TcpConnection`):

================  =====================================================
worker → server   ``join {worker, codec}``, ``push {base_version,
                  timestamp, loss, samples, codec, [codec_state_keys]}``
                  + gradient/buffer/codec-state frames, ``heartbeat``,
                  ``done {report, profile}``, ``error {message}``
server → worker   ``welcome {clock, version, started, layout, buffers,
                  want_codec_state, [mirror]}`` + weight/optimizer-state/
                  codec-state frames, ``start``, ``ok {version}`` + weight
                  frames, or ``ok {version, log: [[version, lr, scale,
                  nframes, seq|null], …]}`` + the logged push frames
                  (none for the recipient's own push: its ``seq``),
                  ``abort {reason}``, ``restart``, ``reject {reason}``
coordinator       ``watch`` → ``result {result}`` on completion
================  =====================================================
"""

from __future__ import annotations

import signal
import socket
import threading
import time
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.ps.checkpoint import load_codec_states
from repro.ps.faults import NET_FAULT_KINDS
from repro.ps.netfaults import ChaosConnection, NetFaultSchedule, RetryBudget
from repro.ps.compression import EncodedShard, decode_shard
from repro.ps.flatbuffer import Segment
from repro.ps.messages import FlatPullPayload, PullReply
from repro.ps.process_runtime import reap, resolve_context
from repro.ps.plan import WorkloadPlan, build_optimizer, build_server, build_store, plan_codec
from repro.ps.result import RunResult, json_restore, json_safe
from repro.ps.session import (
    LogEntry,
    Mirror,
    Resume,
    ServerLoop,
    ServerSession,
    UpdateLog,
    WorkerLoop,
)
from repro.ps.transport import (
    ConnectionClosed,
    TcpConnection,
    connect_tcp,
    format_address,
    parse_address,
)
from repro.utils.logging import get_logger

__all__ = [
    "TcpTrainingPlan",
    "TcpServer",
    "TcpSupervisor",
    "TcpTrainer",
    "run_tcp_worker",
]

_LOGGER = get_logger("ps.tcp_runtime")

#: Synthetic frame shard ids: real gradient shards sit below, the packed
#: non-trainable buffers ride at ``_BUFFER_SHARD``, the packed optimizer
#: state of a mirroring dense reply at ``_VELOCITY_SHARD``, codec
#: error-feedback state frames at ``_CODEC_SHARD_BASE + i``.
_BUFFER_SHARD = 1 << 20
_VELOCITY_SHARD = _BUFFER_SHARD + 1
_CODEC_SHARD_BASE = 1 << 21


@dataclass(frozen=True, kw_only=True)
class TcpTrainingPlan(WorkloadPlan):
    """Picklable description of one socket-backed training run.

    Everything in :class:`~repro.ps.plan.WorkloadPlan` (the store is
    monolithic: ``num_shards`` must be 1), plus the networking knobs:

    Attributes
    ----------
    address:
        ``host:port`` the server binds (workers connect to the same
        string).  Port ``0`` asks the OS for an ephemeral port —
        :class:`TcpTrainer`'s self-hosted mode.
    heartbeat_interval, heartbeat_timeout:
        Each worker sends a heartbeat every ``heartbeat_interval`` seconds
        from a background thread; a worker silent for
        ``heartbeat_timeout`` seconds is declared dead and deregistered.
    checkpoint_path:
        When set, the server checkpoints here (atomically) every
        ``checkpoint_every_pushes`` pushes, at completion, and on SIGTERM
        — and restores from it at startup if the file exists.  Also
        switches workers to shipping their codec error-feedback state with
        each push so the checkpoint can restore residuals.
    num_workers:
        The *expected* membership: training starts once ``worker-0`` …
        ``worker-(n-1)`` have all joined.  Extra workers may join later
        (elastic), and members may die without stopping the run.
    """

    address: str = "127.0.0.1:0"
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 10.0
    checkpoint_path: str | None = None
    checkpoint_every_pushes: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_shards != 1:
            raise ValueError(
                "the tcp backend serves a monolithic store (num_shards=1); "
                "use the process backend for sharded stores"
            )
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval and timeout must be positive")
        if self.heartbeat_timeout <= 2 * self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed twice the heartbeat_interval "
                "(one lost heartbeat must not kill a worker)"
            )
        if self.checkpoint_every_pushes < 0:
            raise ValueError("checkpoint_every_pushes must be non-negative")
        parse_address(self.address)

    def net_fault_support(self) -> tuple[tuple[str, ...], str]:
        return NET_FAULT_KINDS, "the tcp backend"


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------
def _dense_frame(shard: int, array: np.ndarray) -> EncodedShard:
    """Wrap one flat array as a dense self-describing frame."""
    flat = np.ascontiguousarray(array).reshape(-1)
    return EncodedShard(shard=int(shard), size=int(flat.size), scheme="dense", arrays=(flat,))


def _layout_to_wire(segments) -> list:
    return [[s.name, int(s.lo), int(s.hi), list(s.shape)] for s in segments]


def _layout_from_wire(data) -> tuple[Segment, ...]:
    return tuple(
        Segment(str(name), int(lo), int(hi), tuple(int(n) for n in shape))
        for name, lo, hi, shape in data
    )


def _pack_buffers(buffers: Mapping[str, np.ndarray], order: list) -> np.ndarray:
    """Concatenate buffer arrays in the server's declared order."""
    return np.concatenate(
        [np.asarray(buffers[name], dtype=np.float64).reshape(-1) for name, _ in order]
    )


def _unpack_buffers(flat: np.ndarray, order: list) -> dict[str, np.ndarray]:
    """Inverse of :func:`_pack_buffers`."""
    out: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in order:
        size = int(np.prod(shape)) if shape else 1
        out[str(name)] = np.asarray(flat[offset : offset + size]).reshape(
            tuple(int(n) for n in shape)
        )
        offset += size
    return out


def _codec_state_frames(header: dict, state) -> list:
    """Frames carrying codec error-feedback ``state``; ``header`` names its keys."""
    keys = sorted(state or ())
    if keys:
        header["codec_state_keys"] = keys
    return [_dense_frame(_CODEC_SHARD_BASE + index, state[key]) for index, key in enumerate(keys)]


def _codec_state(header: dict, frames) -> dict | None:
    """The error-feedback residuals a welcome or push carries, if any —
    copied, because they outlive the message's receive buffer."""
    keys = header.get("codec_state_keys")
    if not keys:
        return None
    state_frames = [frame for frame in frames if frame.shard >= _CODEC_SHARD_BASE]
    return {str(key): np.array(decode_shard(frame)) for key, frame in zip(keys, state_frames)}


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
@dataclass
class _Peer:
    """Server-side view of one connected worker."""

    conn: TcpConnection
    worker_id: str
    last_seen: float


class _Restart(Exception):
    """SIGTERM reached the server: checkpoint, send the workers away, exit."""


class _TcpHub:
    """The server end of the tcp links: the :class:`ServerLoop` hub.

    Accepts connections; answers a ``join`` with the ``welcome`` (the worker
    registers at the clock it resumes at) and, once the expected membership
    is present, sends ``start``; tracks heartbeats and ``watch``
    connections; turns push frames into gradients and an OK into frames.
    EOF, heartbeat silence and a reported ``error`` are departures.  A
    worker the net-fault plan may tear rides its reconnect path, so the run
    waits for it.  With a checkpoint path it restores the checkpoint when
    one exists, and checkpoints every ``checkpoint_every_pushes`` pushes;
    a set ``shutdown`` event (SIGTERM) raises :class:`_Restart`.
    """

    def __init__(self, plan: TcpTrainingPlan, session: ServerSession, listener=None, shutdown=None):
        self.plan, self.session = plan, session
        self._listener, self._shutdown = listener, shutdown
        store = session.store
        self._codec = plan_codec(plan)
        self._layout = _layout_to_wire(store.flat_layouts[0][1])
        self._buffer_order = [
            [name, list(np.asarray(value).shape)] for name, value in store.buffers.items()
        ]
        #: Workers whose socket the chaos plan may legitimately tear: their
        #: connection losses are events, not run errors.
        self._chaos = {w for w in plan.worker_ids if plan.fault_plan.tears_connections(w)}
        self._peers: dict[str, _Peer] = {}
        self._conns: set[TcpConnection] = set()  # every accepted one still open
        self.watchers: set[TcpConnection] = set()
        self._departed: list[tuple[str, str, bool]] = []
        self._aborted = False
        self._linger = 0.0
        self._sent = self._received = 0
        self._loop = None
        self.codec_states: dict[str, dict[str, np.ndarray]] = {}
        self._checkpoint = (
            Path(plan.checkpoint_path).with_suffix(".npz") if plan.checkpoint_path else None
        )
        if self._checkpoint is not None and self._checkpoint.exists():
            # Restart: the session resumes from the checkpoint, the hub takes
            # back its wire totals and the workers' codec residuals.
            counters = session.restore(self._checkpoint)
            self._sent, self._received = counters.get("tcp_bytes", (0, 0))
            self.codec_states = load_codec_states(self._checkpoint)
        if self._codec is not None:
            # Encoded pushes are small enough to answer pulls with; dense
            # ones never are, so a codec-less run keeps no log at all.
            session.update_log = UpdateLog(store.version, store.nbytes)

    # -- the hub -------------------------------------------------------
    def attach(self, loop) -> None:
        self._loop = loop
        if self._listener is not None:
            loop.watch(self._listener)

    def receive(self, ready):
        if self._shutdown is not None and self._shutdown.is_set():
            raise _Restart
        for conn, _ in ready:
            if conn is self._listener:
                self._accept()
                continue
            try:
                messages = conn.read_ready()
            except ConnectionClosed:
                messages = ()
                self._lost(conn)
            for header, frames in messages:
                yield from self._read(conn, header, frames)
            yield from self._drain()
        now = time.monotonic()
        for peer in list(self._peers.values()):  # a silent worker is a dead worker
            if now - peer.last_seen > self.plan.heartbeat_timeout:
                self._depart(peer.worker_id, f"no heartbeat for {self.plan.heartbeat_timeout:.0f}s")
        yield from self._drain()

    def _gradients(self, worker_id, message, payload) -> dict:
        """A push's gradient keywords, off its frames; its codec state is kept."""
        state = _codec_state(message, payload)
        if state:  # kept for the next checkpoint
            self.codec_states[worker_id] = state
        message["loss"] = json_restore(message.get("loss", "nan"))
        buffers = {}
        for frame in payload:
            if frame.shard == _BUFFER_SHARD:
                buffers = _unpack_buffers(decode_shard(frame), self._buffer_order)
        gradient_frames = tuple(frame for frame in payload if frame.shard < _BUFFER_SHARD)
        return {"encoded": gradient_frames, "buffers": buffers}

    def ok(self, worker_id: str, welcome: dict | None = None, extra_frames=()) -> None:
        """Send ``worker_id`` its OK — or the ``welcome`` header, with its
        ``extra_frames`` — carrying what the session's :meth:`reply` built:
        the update log (the recipient's own push travels as its ``seq`` and
        no frames), or the packed weights plus, for a mirror-building
        welcome, the optimizer state."""
        peer = self._peers.get(worker_id)
        if peer is None:
            return
        ok = self.session.reply(worker_id, welcome=welcome is not None)
        header = welcome or {"type": "ok"}
        header["version"] = ok.version
        if ok.kind == "log":
            sent = [entry.frames_for(worker_id) for entry in ok.entries]
            header["log"] = [
                [e.version, e.learning_rate, e.scale, len(frames), None if frames else e.seq]
                for e, frames in zip(ok.entries, sent)
            ]
            self._send(peer.conn, header, chain.from_iterable(sent), worker_id=worker_id)
            return
        frames = [_dense_frame(payload.shard, payload.buffer) for payload in ok.pull.flat_weights]
        if ok.mirrored:
            header["mirror"] = True
        if ok.velocity is not None:
            frames.append(_dense_frame(_VELOCITY_SHARD, ok.velocity))
        try:
            self._send(peer.conn, header, (*frames, *extra_frames), worker_id=worker_id)
        finally:
            ok.pull.release()

    def abort(self, reason: str) -> None:
        self._aborted = True
        self._linger = time.monotonic() + 1.0
        self.broadcast({"type": "abort", "reason": reason})

    def waiting(self) -> bool:
        if self._aborted:
            # Linger briefly so stragglers racing the abort (a join already
            # in flight) get an explicit ``reject``, not a connection refused.
            return time.monotonic() < self._linger
        # Chaos-torn workers are mid-redial, not gone: wait until they report
        # done (the liveness guard still bounds one that never makes it back).
        return bool(self._chaos - set(self.session.reports))

    def statistics(self) -> dict:
        return {
            "tcp_bytes_sent": self._sent,
            "tcp_bytes_received": self._received,
        }

    # -- connections and membership ------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # BlockingIOError: none left
                return
            conn = TcpConnection(sock)
            conn.settimeout(self.plan.wait_timeout)
            self._conns.add(conn)
            self._loop.watch(conn)

    def _read(self, conn, header: dict, frames):
        kind = header.get("type")
        if kind == "join":
            yield from self._join(conn, header)
            return
        if kind == "watch":
            self.watchers.add(conn)
            return
        # The sender is the connection's owner: the header never names it.
        peer = self._peers.get(conn.owner)
        if peer is None or peer.conn is not conn:
            return  # not a member (any more): e.g. a push racing a deregistration
        peer.last_seen = time.monotonic()
        if kind == "push":
            yield peer.worker_id, kind, header, self._gradients(peer.worker_id, header, frames)
            every = self.plan.checkpoint_every_pushes
            if every and self.session.pushes_handled % every == 0:
                self.checkpoint()
        elif kind == "done":
            del self._peers[peer.worker_id]
            self._retire(conn)
            report = dict(header["report"])
            report["mean_loss"] = json_restore(report.get("mean_loss", "nan"))
            # Worker-side chaos and retry events ride along with the report.
            yield peer.worker_id, kind, {**header, "report": report}, header.get("profile")
        elif kind == "error":
            self._depart(peer.worker_id, str(header.get("message", "worker error")))
        elif kind != "heartbeat":
            _LOGGER.warning("ignoring unknown message type %r", kind)

    def _join(self, conn, header: dict):
        session = self.session
        worker_id = str(header["worker"])
        if header.get("chaos"):
            # Standalone serve mode: the chaos plan lives in the *run*
            # spec, not necessarily the server's — the join envelope
            # declares tear-prone workers so their connection losses are
            # recorded as events, not run errors.
            self._chaos.add(worker_id)
        if self._aborted or worker_id in self._peers:
            reason = "run aborted" if self._aborted else f"duplicate join for {worker_id!r}"
            self._send(conn, {"type": "reject", "reason": reason})
            self._retire(conn)
            return
        self._peers[worker_id] = _Peer(conn=conn, worker_id=worker_id, last_seen=time.monotonic())
        conn.owner = worker_id
        # The session registers the worker at the clock it resumes at.
        yield worker_id, "join", {"chaos": worker_id in self._chaos}, None
        clock = session.clock(worker_id)
        welcome = {
            "type": "welcome",
            "worker": worker_id,
            "clock": clock,
            "started": session.started,
            "layout": self._layout,
            "buffers": self._buffer_order,
            "want_codec_state": self._checkpoint is not None and self._codec is not None,
        }
        state = self.codec_states.get(worker_id) if self._codec is not None else None
        self.ok(worker_id, welcome, _codec_state_frames(welcome, state))
        _LOGGER.info("%s joined at clock %d (%s)", worker_id, clock, conn.peername())

        if not session.started and set(self.plan.worker_ids) <= set(self._peers):
            session.start()
            for peer in list(self._peers.values()):
                self._send(peer.conn, {"type": "start"}, worker_id=peer.worker_id)
            _LOGGER.info("all %d expected workers joined; training started", self.plan.num_workers)

    def _lost(self, conn) -> None:
        peer = self._peers.get(conn.owner)  # the join stamped the owner
        if peer is not None and peer.conn is conn:
            self._depart(peer.worker_id, "process died (connection lost)")
            return
        self.watchers.discard(conn)
        self._retire(conn)

    def _depart(self, worker_id: str, reason: str) -> None:
        """Drop ``worker_id``'s connection; :meth:`_drain` reports the departure."""
        peer = self._peers.pop(worker_id, None)
        if peer is None:
            return
        self._retire(peer.conn)
        chaos = worker_id in self._chaos
        if chaos and self.session.fault_injector is None:
            self.session.events.append(
                {"kind": "connection_lost", "worker": worker_id, "reason": reason}
            )
        self._departed.append((worker_id, reason, chaos))
        _LOGGER.warning("%s removed: %s", worker_id, reason)

    def _drain(self):
        while self._departed:
            worker_id, reason, chaos = self._departed.pop(0)
            yield worker_id, "departure", {"reason": reason, "chaos": chaos}, None
            if not self.session.started and worker_id in self.plan.worker_ids:
                # The start line can never be reached without its membership.
                yield "server", "failure", {"reason": "expected worker died before start"}, None

    def _send(self, conn, header: dict, frames=(), worker_id: str | None = None) -> None:
        try:
            conn.send(header, tuple(frames))
        except ConnectionClosed:
            if worker_id is not None:
                self._depart(worker_id, "connection lost while sending")

    def _retire(self, conn: TcpConnection) -> None:
        """Forget and close one connection, keeping wire totals."""
        self._loop.forget(conn)
        self._conns.discard(conn)
        self._sent += conn.bytes_sent
        self._received += conn.bytes_received
        conn.close()

    # -- persistence and teardown --------------------------------------
    def checkpoint(self) -> None:
        """Save the run atomically (no checkpoint path: a no-op)."""
        if self._checkpoint is None:
            return
        self.session.checkpoint(
            self._checkpoint,
            counters={
                "tcp_bytes": [
                    self._sent + sum(conn.bytes_sent for conn in self._conns),
                    self._received + sum(conn.bytes_received for conn in self._conns),
                ]
            },
            codec_states=self.codec_states or None,
        )

    def broadcast(self, header: dict) -> None:
        """Send every connected worker ``header`` and close its connection."""
        for peer in self._peers.values():
            self._send(peer.conn, header)
            self._retire(peer.conn)
        self._peers.clear()

    def close(self, keep_watchers: bool = False) -> None:
        for conn in list(self._conns):
            if not (keep_watchers and conn in self.watchers):
                self._retire(conn)


class TcpServer:
    """The standalone parameter-server process behind a listening socket.

    ``serve()`` runs one complete training job: a
    :class:`~repro.ps.session.ServerLoop` over the tcp hub accepts joins
    until the expected membership is present, drives the policy from
    pushes, survives worker deaths, and returns the collected
    :class:`~repro.ps.result.RunResult` (its ``to_dict()`` also shipped to every
    ``watch`` connection).
    On SIGTERM it checkpoints, notifies workers to reconnect, and returns
    ``None`` — the restart contract.
    """

    def __init__(self, plan: TcpTrainingPlan, ready_callback=None) -> None:
        self.plan = plan
        self._ready_callback = ready_callback
        self._shutdown = threading.Event()
        self.bound_address: str | None = None
        self.session: ServerSession | None = None

    def request_shutdown(self, *_args) -> None:
        """Ask ``serve()`` to checkpoint and exit (signal-handler safe)."""
        self._shutdown.set()

    def serve(self) -> RunResult | None:
        plan = self.plan
        workload = plan.build_workload()
        self.session = session = build_server(plan, build_store(plan, workload), workload)
        host, port = parse_address(plan.address)
        listener = socket.create_server((host, port), backlog=64)  # SO_REUSEADDR on POSIX
        listener.setblocking(False)
        self.bound_address = format_address(host, listener.getsockname()[1])
        _LOGGER.info("tcp server listening on %s", self.bound_address)
        hub = _TcpHub(plan, session, listener, self._shutdown)
        session.evaluate(0.0)

        # Only the main thread may install signal handlers; elsewhere the
        # owner calls request_shutdown() directly.
        previous_handler = None
        try:
            previous_handler = signal.signal(signal.SIGTERM, self.request_shutdown)
        except ValueError:
            pass
        restarting = False
        try:
            if self._ready_callback is not None:
                self._ready_callback(self.bound_address)
            loop = ServerLoop(session, hub, poll=min(1.0, plan.heartbeat_timeout / 4.0))
            try:
                result = loop.run()
            except _Restart:
                restarting = True
                hub.checkpoint()
                hub.broadcast({"type": "restart"})  # reconnect to the next incarnation
                return None
            hub.checkpoint()
            record = result.to_dict()
            for watcher in hub.watchers:
                try:
                    watcher.send({"type": "result", "result": record})
                except ConnectionClosed:
                    pass
            return result
        finally:
            if previous_handler is not None:
                try:
                    signal.signal(signal.SIGTERM, previous_handler)
                except ValueError:  # pragma: no cover - non-main thread
                    pass
            hub.close(keep_watchers=restarting)
            listener.close()


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _heartbeat(conn: TcpConnection, worker_id: str, interval: float) -> threading.Event:
    """Ping the server every ``interval`` seconds from a background thread,
    until the returned event is set."""
    stop = threading.Event()

    def run() -> None:
        while not stop.wait(interval):
            try:
                conn.send({"type": "heartbeat", "worker": worker_id})
            except ConnectionClosed:
                return  # the main loop will notice and reconnect

    threading.Thread(target=run, name=f"heartbeat-{worker_id}", daemon=True).start()
    return stop


def _pull_reply(layout, header: dict, frames) -> PullReply:
    """The weight frames of a welcome/ok message as a pull reply.

    Zero-copy: the payloads are views of the connection's receive buffer,
    valid until the next receive — the loop loads them before it does.
    """
    weight_frames = [frame for frame in frames if frame.shard < _BUFFER_SHARD]
    return PullReply(
        weights={},
        buffers={},
        version=int(header["version"]),
        flat_weights=tuple(
            FlatPullPayload(shard=frame.shard, buffer=decode_shard(frame), layout=layout)
            for frame in weight_frames
        ),
        # Weights plus the optimizer state a mirroring reply carries.
        wire_nbytes=sum(f.nbytes for f in frames if f.shard < _CODEC_SHARD_BASE),
    )


class _TcpLink:
    """One worker's link over a :class:`TcpConnection`.

    ``join``/``welcome`` opens it (the welcome carries the flat layout, the
    clock to resume at and the packed weights), a background thread
    heartbeats, every push is answered — when the policy says so — by an
    ``ok`` that piggybacks the pull (update log or weights).  A lost
    connection, an unanswered push or a ``restart`` message triggers the
    budgeted redial: rejoin, and tell the loop where the server resumes it.
    """

    gradient_buffers = None

    def __init__(self, plan: TcpTrainingPlan, index: int, address: str) -> None:
        self._plan = plan
        self._worker_id = worker_id = f"worker-{index}"
        self._address = address
        self._conn: TcpConnection | None = None
        self._heartbeat: threading.Event | None = None
        self._tearable = plan.fault_plan.tears_connections(worker_id)
        self._schedule = (
            NetFaultSchedule(plan.fault_plan, worker_id, plan.seed)
            if plan.fault_plan.net_for(worker_id)
            else None
        )
        self._retries: list[dict] = []
        self.layouts = None
        self._buffer_order: list = []
        self._want_state = False
        self._await_start = False
        self._running = False
        self._codec = None
        self._mirror: Mirror | None = None
        #: ``(seq, frames)`` of the push in flight: a log OK names it by
        #: ``seq`` instead of echoing it.  A reference, not a copy — codecs
        #: encode into fresh arrays and the loop sends nothing before the OK.
        self._held: tuple = (None, ())
        self._send_error: ConnectionClosed | None = None

    def _join(self, timeout: float) -> Resume:
        """Connect, join, and resume where the welcome says.

        ``timeout`` bounds the connect *and* the welcome wait — a rejoin
        under a retry budget must pay one attempt for an unanswered join,
        not the whole budget.  A worker whose connection the chaos plan may
        tear says so in its join: a standalone server (spec without
        ``net_faults``) learns it there, so the tears stay events rather
        than run errors.
        """
        conn = connect_tcp(self._address, timeout=timeout)
        join = {"type": "join", "worker": self._worker_id, "codec": self._plan.compression}
        if self._tearable:
            join["chaos"] = True
        conn.send(join)
        welcome, frames = conn.recv(timeout=timeout)
        while welcome.get("type") != "welcome":  # a stray start/ok from a past life
            if welcome.get("type") == "reject":
                conn.close()
                raise RuntimeError(f"server rejected join: {welcome.get('reason')}")
            welcome, frames = conn.recv(timeout=timeout)
        if self._schedule is not None:
            conn = ChaosConnection(conn, self._schedule)
        self._conn = conn
        if self.layouts is None:
            self.layouts = ((0, _layout_from_wire(welcome["layout"])),)
            self._buffer_order = welcome["buffers"]
        self._want_state = bool(welcome.get("want_codec_state", False))
        self._await_start = not welcome["started"]
        return Resume(
            clock=int(welcome["clock"]),
            reply=self._dense_reply(welcome, frames),
            codec_state=_codec_state(welcome, frames),
        )

    def _dense_reply(self, header: dict, frames) -> PullReply:
        """A welcome's or dense OK's weights; a ``mirror`` one (re)builds the
        mirror, any other leaves this worker without one (its optimizer
        state would be stale) until the next welcome."""
        layout = self.layouts[0][1]
        reply = _pull_reply(layout, header, frames)
        if header.get("mirror"):
            velocity = [decode_shard(f) for f in frames if f.shard == _VELOCITY_SHARD]
            self._mirror = Mirror(
                build_optimizer(self._plan),
                layout,
                reply.flat_weights[0].buffer,
                reply.version,
                *velocity,
            )
        else:
            self._mirror = None
        return reply

    def _log_reply(self, header: dict, frames) -> PullReply:
        """Replay an OK's update log through the mirror; its weights.

        An entry naming a ``seq`` is this worker's own push, replayed from
        the frames it kept, at that entry's position.  A ``seq`` it does not
        hold or frames left over raise: never train on the wrong weights.
        """
        entries, offset = [], 0
        for version, learning_rate, scale, count, seq in header["log"]:
            if seq is None:
                sent = frames[offset : offset + count]
                offset += count
            elif seq != self._held[0]:
                raise RuntimeError(
                    f"update log names push seq {seq} of {self._worker_id}, "
                    f"which holds seq {self._held[0]}"
                )
            else:
                sent = self._held[1]
            entries.append(LogEntry(version, learning_rate, scale, sent))
        if offset != len(frames):
            raise RuntimeError(
                f"update log counts {offset} frames, the OK carried {len(frames)}"
            )
        reply = self._mirror.replay(entries, int(header["version"]))
        return replace(reply, wire_nbytes=sum(frame.nbytes for frame in frames))

    def open(self) -> Resume:
        return self._join(self._plan.wait_timeout)

    def ready(self, worker) -> bool:
        # The replica's codec: pushes ship its error-feedback residuals when
        # the server checkpoints them (``want_codec_state``).
        self._codec = worker.codec
        self._heartbeat = _heartbeat(self._conn, self._worker_id, self._plan.heartbeat_interval)
        while self._await_start:
            header, _ = self._conn.recv(timeout=self._plan.wait_timeout)
            kind = header.get("type")
            if kind in ("abort", "restart"):
                _LOGGER.info(
                    "worker %s stopping: %s",
                    self._worker_id, header.get("reason", "server went away"),
                )
                return False
            self._await_start = kind != "start"
        if not self._running and self._schedule is not None:
            # Partition windows count from here, not process startup —
            # model build and data loading must not eat the window.
            self._schedule.mark_start()
        self._running = True
        return True

    def _rejoin(self) -> Resume:
        """Reconnect after a server restart (or lost connection)."""
        self.close()
        if self._schedule is not None:
            # A partitioned worker cannot reach the server until the window
            # closes; the chaos layer holds the redial, not the server.
            self._schedule.hold_reconnect()
        return self._join(min(self._plan.wait_timeout, 10.0))

    def _recover(self, reason: str) -> Resume:
        """Budgeted rejoin: bounded exponential backoff, jittered sleeps.

        Retries transient failures (server restarting, the server still
        holding our half-dead old socket → 'duplicate join' rejects) and
        fails the worker loudly once the budget is spent — a dead server
        must never wedge the training loop forever.
        """
        budget = RetryBudget(
            max_attempts=8, base_delay=0.1, max_delay=2.0,
            deadline=self._plan.wait_timeout,
        )
        last_error: Exception | None = None
        for attempt in budget.attempts():
            try:
                resume = self._rejoin()
            except (ConnectionError, TimeoutError, OSError) as error:
                last_error = error
            except RuntimeError as error:
                if "duplicate" not in str(error):
                    raise
                last_error = error
            else:
                self._retries.append(
                    {
                        "kind": "retry",
                        "worker": self._worker_id,
                        "seq": resume.clock,
                        "attempts": attempt + 1,
                        "reason": reason,
                    }
                )
                return resume
        raise RuntimeError(
            f"{self._worker_id}: reconnect budget exhausted after {reason}: {last_error}"
        )

    def push(self, header, computation, flat, encoded) -> bool:
        if encoded is not None:
            frames = list(encoded)
            self._held = (header["seq"], encoded)
        else:
            frames = [
                _dense_frame(shard, buffer)
                for shard, buffer in sorted((flat or {}).items())
            ]
        envelope = {"type": "push", "worker": self._worker_id, **header}
        envelope["loss"] = json_safe(float(header["loss"]))
        if computation.buffers and self._buffer_order:
            frames.append(
                _dense_frame(
                    _BUFFER_SHARD, _pack_buffers(computation.buffers, self._buffer_order)
                )
            )
        if self._want_state and self._codec is not None:
            frames.extend(_codec_state_frames(envelope, self._codec.state_dict()))
        try:
            self._conn.send(envelope, tuple(frames))
        except ConnectionClosed as closed:
            self._send_error = closed  # await_ok redials and resumes
        return True

    def await_ok(self, timeout: float):
        try:
            if self._send_error is not None:
                closed, self._send_error = self._send_error, None
                raise closed
            while True:
                reply, frames = self._conn.recv(timeout=timeout)
                kind = reply.get("type")
                if kind in ("ok", "abort", "restart"):
                    break
        except ConnectionClosed as closed:
            return self._recover(str(closed) or "connection closed")
        except TimeoutError:
            # The OK never came (hung or wedged server).  Redial and
            # retransmit: the server's per-worker watermark makes a
            # push whose OK was lost idempotent.
            return self._recover("push acknowledgement timed out")
        if kind == "abort":
            _LOGGER.info(
                "worker %s stopping: %s", self._worker_id, reply.get("reason", "aborted")
            )
            return None
        if kind == "restart":
            return self._recover("server restart")
        if "log" in reply:
            return self._log_reply(reply, frames)
        return self._dense_reply(reply, frames)

    def leave(self, clock: int, rejoin_after=None) -> Resume | None:
        # Injected crash: drop the socket like a real death.  The server
        # sees EOF, records the crash, deregisters us and re-bounds the
        # policy over the survivors.
        self.close()
        if rejoin_after is None:
            _LOGGER.info("worker %s: injected crash (permanent)", self._worker_id)
            return None
        time.sleep(rejoin_after * self._plan.heartbeat_interval)
        return self._rejoin()  # elastic membership: resume at the server's clock

    def done(self, report: dict, profile) -> None:
        chaos_events = self._schedule.events if self._schedule is not None else []
        self._conn.send(
            {
                "type": "done",
                "worker": self._worker_id,
                "events": json_safe([*chaos_events, *self._retries]),
                "report": json_safe(report),
                "profile": json_safe(profile) if profile is not None else None,
            }
        )

    def error(self, message: str) -> None:
        if self._conn is None:
            return
        try:
            self._conn.send(
                {"type": "error", "worker": self._worker_id, "message": message}
            )
        except ConnectionClosed:
            pass

    def close(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.set()
        if self._conn is not None:
            self._conn.close()


def run_tcp_worker(plan: TcpTrainingPlan, index: int, address: str | None = None) -> None:
    """Entry point of one TCP worker (run in its own process).

    Joins the server at ``address`` (default: the plan's) and runs the step
    protocol until ``iterations_per_worker`` pushes are acknowledged; the
    link rides out connection losses and server restarts on the way.
    """
    link = _TcpLink(plan, index, address or plan.address)
    try:
        WorkerLoop.from_plan(plan, index, link).run()
    finally:
        link.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def _serve_entry(plan: TcpTrainingPlan, ready_conn, result_conn=None) -> None:
    """Server child-process entry: report the bound address, then serve.

    Under a supervisor, ``result_conn`` carries ``("result", result)`` on
    completion or ``("restart", None)`` after a graceful SIGTERM
    checkpoint; a hard crash (``kill -9``) ships nothing, which is exactly
    how the supervisor tells the two apart.
    """

    def ready(address: str) -> None:
        ready_conn.send(address)
        ready_conn.close()

    result = TcpServer(plan, ready_callback=ready).serve()
    if result_conn is None:
        return
    try:
        if result is None:
            result_conn.send(("restart", None))
        else:
            result_conn.send(("result", result))
        result_conn.close()
    except (BrokenPipeError, OSError):  # pragma: no cover - supervisor died
        pass


def _spawn_server(context, plan: TcpTrainingPlan, result_conn=None):
    """Start a :func:`_serve_entry` child: it, and the address it bound
    (``None`` when it reported none within the plan's ``wait_timeout``)."""
    ready_recv, ready_send = context.Pipe(duplex=False)
    child = context.Process(
        target=_serve_entry,
        args=(plan, ready_send, result_conn),
        name="repro-tcp-server",
        daemon=True,
    )
    child.start()
    ready_send.close()
    address = ready_recv.recv() if ready_recv.poll(plan.wait_timeout) else None
    ready_recv.close()
    return child, address


def _worker_entry(plan: TcpTrainingPlan, index: int, address: str) -> None:
    run_tcp_worker(plan, index, address)


class TcpSupervisor:
    """Watchdog that keeps a :class:`TcpServer` alive across hard crashes.

    Runs the server as a child process and monitors it: a child that dies
    without reporting a result — ``kill -9``, OOM, a segfault — is
    relaunched on the *same* address from the latest atomic checkpoint,
    and the workers ride their normal reconnect path (jittered redial
    backoff, rejoin, watermark-deduplicated push replay).  A graceful
    SIGTERM to the child also leads to a relaunch (self-healing is the
    supervisor's whole job); a SIGTERM to the supervisor itself — routed
    through :meth:`request_shutdown` — forwards to the child, lets it
    checkpoint, and exits without respawning.

    Requires ``plan.checkpoint_path``: a supervisor that cannot restore
    state would silently restart training from scratch.
    """

    def __init__(
        self,
        plan: TcpTrainingPlan,
        context=None,
        max_restarts: int = 5,
        ready_callback=None,
    ) -> None:
        if plan.checkpoint_path is None:
            raise ValueError(
                "supervised serving requires checkpoint_path: the supervisor "
                "restarts the server from the latest atomic checkpoint"
            )
        if max_restarts < 1:
            raise ValueError("max_restarts must be at least 1")
        self.plan = plan
        self.max_restarts = max_restarts
        self._ready_callback = ready_callback
        self.context = resolve_context(context)
        self._stop = threading.Event()
        self.bound_address: str | None = None
        self.server_pid: int | None = None
        self.restarts = 0
        self._child = None

    def request_shutdown(self, *_args) -> None:
        """Stop supervising: forward SIGTERM to the child, don't respawn."""
        self._stop.set()

    def run(self) -> RunResult | None:
        """Supervise until the run completes; ``None`` after a shutdown."""
        plan = self.plan
        while True:
            result_recv, result_send = self.context.Pipe(duplex=False)
            child, address = _spawn_server(self.context, plan, result_send)
            self._child = child
            self.server_pid = child.pid
            result_send.close()
            if address is None:
                child.terminate()
                child.join(timeout=5.0)
                return RunResult.failed(
                    "supervised tcp server never reported its address"
                )
            if self.bound_address is None:
                # Pin the first child's (possibly ephemeral) port: every
                # restart must rebind the address the workers redial.
                self.bound_address = address
                plan = replace(plan, address=address)
                if self._ready_callback is not None:
                    self._ready_callback(address)

            while child.is_alive() and not self._stop.is_set():
                child.join(timeout=0.2)
            if self._stop.is_set() and child.is_alive():
                child.terminate()  # SIGTERM: checkpoint, notify workers, exit
            child.join(timeout=plan.wait_timeout)

            try:
                # A hard-killed child leaves the pipe readable but empty:
                # poll() sees the EOF, recv() raises.  No payload = crash.
                payload = result_recv.recv() if result_recv.poll(1.0) else None
            except EOFError:
                payload = None
            result_recv.close()
            if payload is not None and payload[0] == "result":
                return payload[1]
            if self._stop.is_set():
                return None
            # Either a graceful external SIGTERM ("restart") or a hard crash
            # (no payload at all): relaunch from the latest checkpoint.
            self.restarts += 1
            if self.restarts > self.max_restarts:
                return RunResult.failed(
                    f"supervised tcp server died {self.restarts} times "
                    f"(limit {self.max_restarts}); giving up"
                )
            _LOGGER.warning(
                "supervised server died (exitcode %s); restart %d/%d from %s",
                child.exitcode, self.restarts, self.max_restarts,
                plan.checkpoint_path,
            )


class TcpTrainer:
    """Coordinates one TCP training run from the calling process.

    Two modes share one code path:

    * **self-hosted** (default): spawn a :class:`TcpServer` process on the
      plan's address (port 0 → ephemeral), spawn the workers against the
      port it reports, and collect the result over a ``watch`` connection.
    * **external** (``external_address=...``): the server is already
      running (``python -m repro serve``); only workers and the watch
      connection are created here.
    """

    def __init__(
        self,
        plan: TcpTrainingPlan,
        context=None,
        external_address: str | None = None,
    ) -> None:
        self.plan = plan
        self.external_address = external_address
        self.context = resolve_context(context)

    def run(self) -> RunResult:
        """Run to completion; failures surface in ``result.errors``."""
        plan = self.plan
        processes = []
        server_process = None
        watch: TcpConnection | None = None
        try:
            if self.external_address is not None:
                address = self.external_address
            else:
                server_process, address = _spawn_server(self.context, plan)
                processes.append(server_process)
                if address is None:
                    raise RuntimeError("tcp server did not report its address")
            # Watch first: guarantees the result channel exists before any
            # worker can possibly finish the run.
            watch = connect_tcp(address, timeout=plan.wait_timeout)
            watch.send({"type": "watch"})
            for index in range(plan.num_workers):
                process = self.context.Process(
                    target=_worker_entry,
                    args=(plan, index, address),
                    name=f"repro-tcp-worker-{index}",
                    daemon=True,
                )
                process.start()
                processes.append(process)
            return self._await_result(watch, server_process, address)
        finally:
            if watch is not None:
                watch.close()
            reap(processes)

    def _await_result(self, watch, server_process, address) -> RunResult:
        """Wait on the watch channel, tolerating a restarting server.

        No absolute deadline (the server aborts itself on stalls); the
        coordinator only needs to notice the server dying without a
        result, or follow it across a checkpoint/restart cycle.
        """
        try:
            while True:
                # Liveness is read before the wait, so a result that raced
                # the server's exit is still picked up by one final wait.
                alive = server_process is None or server_process.is_alive()
                try:
                    header, _ = watch.recv(timeout=0.5)
                except TimeoutError:
                    if alive:
                        continue
                    break
                except ConnectionClosed:
                    # Server went away: either a graceful restart (reconnect,
                    # like the workers do) or a death (error result).
                    watch.close()
                    try:
                        watch = connect_tcp(address, timeout=self.plan.wait_timeout)
                        watch.send({"type": "watch"})
                    except (ConnectionError, OSError):
                        break
                    continue
                if header.get("type") == "result":
                    return RunResult.from_dict(header["result"])
        finally:
            watch.close()
        return RunResult.failed("tcp server died without reporting a result")
