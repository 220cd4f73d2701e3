"""TCP parameter-server runtime: a standalone server, workers by address.

The process runtime (:mod:`repro.ps.process_runtime`) assumes everything
shares one machine and one coordinator: shared-memory pulls, semaphore OK
signals, a start barrier sized at launch.  This runtime drops all three
assumptions and speaks the length-prefixed socket protocol of
:mod:`repro.ps.transport` instead:

* **One server process** owns the :class:`~repro.ps.server.ParameterServer`
  (monolithic :class:`~repro.ps.kvstore.KeyValueStore`, optimizer, policy)
  behind a listening socket.  It can be started standalone
  (``python -m repro serve SPEC --bind host:port``) or self-hosted by
  :class:`TcpTrainer` on an ephemeral port.
* **Workers connect by address.**  A ``join`` is answered with a
  ``welcome`` carrying the flat layout and the packed weights; every push
  is answered (eventually — the policy decides when) with an ``ok`` that
  piggybacks the fresh weights, so one round trip covers push + pull.
  Gradients travel as the same self-describing frames the shared-memory
  mailboxes use — codec-encoded pushes go from worker memory onto the wire
  unchanged, and the ``none``/uncoded path stays bit-for-bit dense.
* **Membership is elastic.**  Workers may join and leave mid-run: a late
  joiner registers at the cluster's slowest clock, a worker that dies
  (heartbeat timeout or EOF — including mid-push) is deregistered, the
  SSP/DSSP staleness bound is recomputed over the remaining membership,
  and every worker whose wait condition that satisfies gets its OK.  The
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
                  want_codec_state}`` + weight/codec-state frames,
                  ``start``, ``ok {version}`` + weight frames,
                  ``abort {reason}``, ``restart``, ``reject {reason}``
coordinator       ``watch`` → ``result {result}`` on completion
================  =====================================================
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import signal
import socket
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.factory import make_policy, validate_paradigm
from repro.core.staleness import StalenessSummary
from repro.metrics.accuracy import evaluate_model
from repro.optim.schedules import ConstantSchedule
from repro.optim.sgd import SGD
from repro.ps.aggregation import make_aggregator, validate_aggregation_spec
from repro.ps.checkpoint import load_codec_states, restore_into, save_checkpoint
from repro.ps.faults import FaultInjector, parse_fault_specs
from repro.ps.netfaults import (
    ChaosConnection,
    NetFaultSchedule,
    RetryBudget,
    parse_net_fault_specs,
)
from repro.ps.compression import (
    EncodedShard,
    decode_shard,
    make_codec,
    validate_codec_spec,
)
from repro.ps.flatbuffer import Segment
from repro.ps.kvstore import KeyValueStore
from repro.ps.messages import FlatPullPayload, PullReply, PushRequest, WorkerReport
from repro.ps.runtime import ThreadedTrainingResult
from repro.ps.server import ParameterServer
from repro.ps.transport import (
    ConnectionClosed,
    TcpConnection,
    connect_tcp,
    format_address,
    parse_address,
)
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

__all__ = [
    "TcpTrainingPlan",
    "TcpTrainingResult",
    "TcpServer",
    "TcpSupervisor",
    "TcpTrainer",
    "run_tcp_worker",
    "result_to_wire",
    "result_from_wire",
]

_LOGGER = get_logger("ps.tcp_runtime")

#: Same result schema as the threaded and process runtimes.
TcpTrainingResult = ThreadedTrainingResult

#: Synthetic frame shard ids: real gradient shards sit below, the packed
#: non-trainable buffers ride at ``_BUFFER_SHARD``, codec error-feedback
#: state frames at ``_CODEC_SHARD_BASE + i``.
_BUFFER_SHARD = 1 << 20
_CODEC_SHARD_BASE = 1 << 21


@dataclass(frozen=True)
class TcpTrainingPlan:
    """Picklable description of one socket-backed training run.

    The shape mirrors :class:`~repro.ps.process_runtime.ProcessTrainingPlan`
    (plain data only; every process rebuilds from the registry), minus the
    shared-memory knobs and plus the networking ones:

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

    workload: str
    scale_fields: dict
    workload_kwargs: dict = field(default_factory=dict)
    paradigm: str = "dssp"
    paradigm_kwargs: dict = field(default_factory=lambda: {"s_lower": 3, "s_upper": 15})
    num_workers: int = 4
    iterations_per_worker: int = 20
    batch_size: int = 32
    micro_batches: int = 1
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    slowdowns: Mapping[str, float] = field(default_factory=dict)
    evaluate_every_pushes: int = 0
    dtype: str = "float64"
    use_workspace: bool = True
    profile: bool = False
    compression: str | None = None
    aggregation: str | None = None
    faults: tuple = ()
    net_faults: tuple = ()
    seed: int = 0
    address: str = "127.0.0.1:0"
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 10.0
    checkpoint_path: str | None = None
    checkpoint_every_pushes: int = 0
    wait_timeout: float = 120.0
    crash_at: Mapping[str, int] = field(default_factory=dict)
    crash_after_push: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.compression is not None:
            validate_codec_spec(self.compression)
        if self.aggregation is not None:
            validate_aggregation_spec(self.aggregation)
        object.__setattr__(self, "faults", tuple(self.faults))
        if self.faults:
            parse_fault_specs(
                self.faults, [f"worker-{index}" for index in range(self.num_workers)]
            )
        object.__setattr__(
            self, "net_faults", tuple(dict(entry) for entry in self.net_faults)
        )
        if self.net_faults:
            parse_net_fault_specs(
                self.net_faults,
                [f"worker-{index}" for index in range(self.num_workers)],
                context="the tcp backend",
            )
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.iterations_per_worker <= 0:
            raise ValueError("iterations_per_worker must be positive")
        if self.batch_size <= 0 or self.micro_batches <= 0:
            raise ValueError("batch_size and micro_batches must be positive")
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
        validate_paradigm(self.paradigm, self.paradigm_kwargs)
        valid_ids = {f"worker-{index}" for index in range(self.num_workers)}
        unknown = sorted(
            {*self.slowdowns, *self.crash_at, *self.crash_after_push} - valid_ids
        )
        if unknown:
            raise ValueError(
                f"slowdowns/crash_at name nonexistent workers {unknown}; "
                f"valid ids: {sorted(valid_ids)}"
            )

    def build_workload(self):
        """Rebuild the workload in the calling process (registry + scale)."""
        from repro.experiments.config import ExperimentScale
        from repro.experiments.workloads import build_workload

        return build_workload(
            self.workload, ExperimentScale(**self.scale_fields), **self.workload_kwargs
        )


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------
def _plan_codec(plan):
    """The plan's push codec instance, or ``None`` for uncoded pushes."""
    if plan.compression is None:
        return None
    codec = make_codec(plan.compression)
    return None if codec.name == "none" else codec


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


def _json_safe(value):
    """Recursively convert NumPy scalars so the result survives JSON."""
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, float) and value != value:  # NaN → JSON-safe marker
        return "nan"
    return value


def _float_or_nan(value) -> float:
    return float("nan") if value == "nan" else float(value)


def result_to_wire(result: TcpTrainingResult) -> dict:
    """Serialize a training result into a JSON-safe dictionary."""
    statistics = dict(result.server_statistics)
    staleness = statistics.get("update_staleness")
    if isinstance(staleness, StalenessSummary):
        statistics["update_staleness"] = asdict(staleness)
    return _json_safe(
        {
            "wall_time": result.wall_time,
            "worker_reports": [asdict(report) for report in result.worker_reports],
            "server_statistics": statistics,
            "evaluation_times": list(result.evaluation_times),
            "evaluation_accuracies": list(result.evaluation_accuracies),
            "evaluation_losses": list(result.evaluation_losses),
            "errors": list(result.errors),
            "events": [dict(event) for event in result.events],
            "profile": result.profile,
        }
    )


def result_from_wire(data: dict) -> TcpTrainingResult:
    """Reconstruct a training result from :func:`result_to_wire` output."""
    statistics = dict(data.get("server_statistics", {}))
    staleness = statistics.get("update_staleness")
    if isinstance(staleness, dict):
        statistics["update_staleness"] = StalenessSummary(**staleness)
    reports = []
    for raw in data.get("worker_reports", []):
        raw = dict(raw)
        raw["mean_loss"] = _float_or_nan(raw.get("mean_loss", "nan"))
        reports.append(WorkerReport(**raw))
    return TcpTrainingResult(
        wall_time=float(data.get("wall_time", 0.0)),
        worker_reports=reports,
        server_statistics=statistics,
        evaluation_times=[float(t) for t in data.get("evaluation_times", [])],
        evaluation_accuracies=[float(a) for a in data.get("evaluation_accuracies", [])],
        evaluation_losses=[_float_or_nan(v) for v in data.get("evaluation_losses", [])],
        errors=[str(e) for e in data.get("errors", [])],
        events=[dict(event) for event in data.get("events", [])],
        profile=data.get("profile"),
    )


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
@dataclass
class _Peer:
    """Server-side view of one connected worker."""

    conn: TcpConnection
    worker_id: str
    last_seen: float


class TcpServer:
    """The standalone parameter-server process behind a listening socket.

    ``serve()`` runs one complete training job: accept joins until the
    expected membership is present, broadcast ``start``, drive the policy
    from pushes, survive worker deaths, and return the collected
    :class:`TcpTrainingResult` (also shipped to every ``watch``
    connection).  On SIGTERM it checkpoints, notifies workers to
    reconnect, and returns ``None`` — the restart contract.
    """

    def __init__(self, plan: TcpTrainingPlan, ready_callback=None) -> None:
        self.plan = plan
        self._ready_callback = ready_callback
        self._shutdown = threading.Event()
        self.bound_address: str | None = None

    def request_shutdown(self, *_args) -> None:
        """Ask ``serve()`` to checkpoint and exit (signal-handler safe)."""
        self._shutdown.set()

    # ------------------------------------------------------------------
    def serve(self) -> TcpTrainingResult | None:
        plan = self.plan
        workload = plan.build_workload()
        streams = RngStream(plan.seed)
        global_model = workload.model_builder(streams.get("init"))
        initial_weights = {
            name: parameter.data
            for name, parameter in global_model.named_parameters()
        }
        initial_buffers = global_model.buffers()
        store = KeyValueStore(initial_weights, initial_buffers, dtype=plan.dtype)
        optimizer = SGD(
            learning_rate=plan.learning_rate,
            momentum=plan.momentum,
            weight_decay=plan.weight_decay,
        )
        policy = make_policy(plan.paradigm, **plan.paradigm_kwargs)
        worker_ids = [f"worker-{index}" for index in range(plan.num_workers)]
        fault_plan = parse_fault_specs(plan.faults, worker_ids)
        # One chronological event log owns every structured event of the run
        # (injected faults, chaos drops, reconnects, server restarts); the
        # fault injector appends into the same list.
        self._events: list[dict] = []
        self._injector = FaultInjector(fault_plan, streams) if fault_plan else None
        if self._injector is not None:
            self._injector.events = self._events
        self._net_plan = parse_net_fault_specs(plan.net_faults, worker_ids)
        # Workers whose socket the chaos plan may legitimately tear: their
        # connection losses are events, not run errors.
        self._chaos_workers = {
            worker_id
            for worker_id in worker_ids
            if self._net_plan.tears_connections(worker_id)
        }
        server = ParameterServer(
            store=store,
            optimizer=optimizer,
            policy=policy,
            learning_rate_schedule=ConstantSchedule(plan.learning_rate),
            aggregator=(
                make_aggregator(plan.aggregation)
                if plan.aggregation is not None
                else None
            ),
            fault_injector=self._injector,
        )
        self._store, self._server, self._policy = store, server, policy

        # Restart path: restore weights, optimizer state, clocks, residuals,
        # push watermarks and the event history of previous incarnations.
        self._restored_clocks: dict[str, int] = {}
        self._codec_states: dict[str, dict[str, np.ndarray]] = {}
        self._push_watermarks: dict[str, int] = {}
        self._restarts = 0
        checkpoint = Path(plan.checkpoint_path).with_suffix(".npz") if plan.checkpoint_path else None
        if checkpoint is not None and checkpoint.exists():
            metadata = restore_into(checkpoint, store, optimizer)
            self._restored_clocks = {
                str(worker): int(clock)
                for worker, clock in metadata.extra.get("worker_clocks", {}).items()
            }
            self._push_watermarks = {
                str(worker): int(seq)
                for worker, seq in metadata.extra.get("push_watermarks", {}).items()
            }
            self._codec_states = load_codec_states(checkpoint)
            self._events.extend(
                dict(event) for event in metadata.extra.get("events", [])
            )
            self._restarts = int(metadata.extra.get("restarts", 0)) + 1
            self._events.append(
                {
                    "kind": "server_restart",
                    "worker": "server",
                    "restart": self._restarts,
                    "version": int(store.version),
                    "clocks": dict(self._restored_clocks),
                }
            )
            _LOGGER.info(
                "restored checkpoint %s at version %d (clocks=%s, watermarks=%s)",
                checkpoint, store.version, self._restored_clocks, self._push_watermarks,
            )
        self._checkpoint = checkpoint

        self._codec = _plan_codec(plan)
        self._want_codec_state = checkpoint is not None and self._codec is not None
        layout_wire = _layout_to_wire(store.flat_layouts[0][1])
        buffer_order = [
            [name, list(np.asarray(value).shape)]
            for name, value in store.buffers.items()
        ]
        self._layout_wire, self._buffer_order = layout_wire, buffer_order

        eval_model = workload.model_builder(streams.get("eval"))
        if plan.use_workspace:
            eval_model.enable_workspace()

        def evaluate() -> tuple[float, float]:
            eval_model.load_state_dict(dict(store.state_views()))
            return evaluate_model(
                eval_model, workload.test_dataset, batch_size=plan.batch_size
            )

        self._evaluate = evaluate
        self._eval_times: list[float] = []
        self._eval_accuracies: list[float] = []
        self._eval_losses: list[float] = []
        accuracy, loss = evaluate()
        self._eval_times.append(0.0)
        self._eval_accuracies.append(accuracy)
        self._eval_losses.append(loss)

        host, port = parse_address(plan.address)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        listener.setblocking(False)
        self.bound_address = format_address(host, listener.getsockname()[1])
        _LOGGER.info("tcp server listening on %s", self.bound_address)

        # Only the main thread may install signal handlers; elsewhere the
        # owner calls request_shutdown() directly.
        previous_handler = None
        try:
            previous_handler = signal.signal(signal.SIGTERM, self.request_shutdown)
        except ValueError:
            pass

        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "listener")
        self._peers: dict[str, _Peer] = {}
        self._pending: set[TcpConnection] = set()
        self._watchers: set[TcpConnection] = set()
        self._reports: dict[str, WorkerReport] = {}
        self._errors: list[str] = []
        self._profile: dict | None = None
        self._joined_ever: set[str] = set()
        self._started = False
        self._aborted = False
        self._abort_deadline = 0.0
        self._start_time: float | None = None
        self._wire_sent = 0
        self._wire_received = 0
        expected = {f"worker-{index}" for index in range(plan.num_workers)}
        self._expected = expected

        restarting = False
        try:
            if self._ready_callback is not None:
                self._ready_callback(self.bound_address)

            idle_timeout = plan.wait_timeout
            last_progress = time.monotonic()
            self._last_push_time: dict[str, float] = {}
            self._idle_timeout = idle_timeout
            self._last_progress = last_progress
            poll = min(1.0, plan.heartbeat_timeout / 4.0)

            while True:
                if self._shutdown.is_set():
                    restarting = True
                    self._graceful_restart()
                    return None
                now = time.monotonic()
                if self._aborted:
                    # Linger briefly after an abort so stragglers racing the
                    # shutdown (a join already in flight) get an explicit
                    # ``reject`` instead of a connection refused.
                    if not self._peers and now >= self._abort_deadline:
                        break
                elif self._started and not self._peers:
                    # Chaos-torn workers are mid-redial, not gone: linger
                    # until they report done (the liveness guard still
                    # bounds a worker that never makes it back).
                    if not (self._chaos_workers - set(self._reports)):
                        break  # everyone done (or dead) — the run is over
                events = self._selector.select(timeout=poll)
                now = time.monotonic()
                for key, _ in events:
                    if key.data == "listener":
                        self._accept_all(listener)
                        continue
                    conn = key.fileobj
                    try:
                        messages = conn.read_ready()
                    except ConnectionClosed:
                        self._connection_lost(conn)
                        continue
                    for header, frames in messages:
                        self._dispatch(conn, header, frames)
                # Heartbeat sweep: a silent worker is a dead worker.
                for peer in list(self._peers.values()):
                    if now - peer.last_seen > plan.heartbeat_timeout:
                        self._worker_dead(
                            peer.worker_id,
                            f"no heartbeat for {plan.heartbeat_timeout:.0f}s",
                        )
                # Liveness guard, adaptive like the process runtime's.  Once
                # aborted it must not re-fire: _abort_all re-arms the linger
                # deadline, and a guard that trips every iteration would
                # push that deadline forever into the future.
                if (
                    not self._aborted
                    and now - self._last_progress > self._idle_timeout
                ):
                    self._errors.append(
                        f"server: no worker progress for {self._idle_timeout:.0f}s, aborting"
                    )
                    self._abort_all("no worker progress")
            return self._finish()
        finally:
            if previous_handler is not None:
                try:
                    signal.signal(signal.SIGTERM, previous_handler)
                except ValueError:  # pragma: no cover - non-main thread
                    pass
            for conn in (
                *(peer.conn for peer in self._peers.values()),
                *self._pending,
                *([] if restarting else self._watchers),
            ):
                self._retire(conn)
            self._selector.unregister(listener)
            listener.close()
            self._selector.close()

    # ------------------------------------------------------------------
    def _accept_all(self, listener) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover - listener closed
                return
            conn = TcpConnection(sock)
            conn.settimeout(self.plan.wait_timeout)
            self._pending.add(conn)
            self._selector.register(conn, selectors.EVENT_READ, "conn")

    def _retire(self, conn: TcpConnection) -> None:
        """Unregister and close one connection, keeping wire totals."""
        try:
            self._selector.unregister(conn)
        except (KeyError, ValueError):
            pass
        self._wire_sent += conn.bytes_sent
        self._wire_received += conn.bytes_received
        conn.close()

    def _connection_lost(self, conn) -> None:
        peer = self._peers.get(conn.owner)  # the join stamped the owner
        if peer is not None and peer.conn is conn:
            self._worker_dead(peer.worker_id, "process died (connection lost)")
            return
        self._pending.discard(conn)
        self._watchers.discard(conn)
        self._retire(conn)

    def _dispatch(self, conn, header: dict, frames) -> None:
        kind = header.get("type")
        if kind == "join":
            self._handle_join(conn, header)
        elif kind == "push":
            self._handle_push(conn, header, frames)
        elif kind == "heartbeat":
            peer = self._peers.get(str(header.get("worker", "")))
            if peer is not None and peer.conn is conn:
                peer.last_seen = time.monotonic()
        elif kind == "done":
            self._handle_done(conn, header)
        elif kind == "error":
            worker_id = str(header.get("worker", "?"))
            self._worker_dead(worker_id, str(header.get("message", "worker error")))
        elif kind == "watch":
            self._pending.discard(conn)
            self._watchers.add(conn)
        else:
            _LOGGER.warning("ignoring unknown message type %r", kind)

    # -- membership ----------------------------------------------------
    def _handle_join(self, conn, header: dict) -> None:
        worker_id = str(header["worker"])
        if header.get("chaos"):
            # Standalone serve mode: the chaos plan lives in the *run*
            # spec, not necessarily the server's — the join envelope
            # declares tear-prone workers so their connection losses are
            # recorded as events, not run errors.
            self._chaos_workers.add(worker_id)
        self._pending.discard(conn)
        if self._aborted:
            self._try_send(conn, {"type": "reject", "reason": "run aborted"})
            self._retire(conn)
            return
        if worker_id in self._peers:
            self._try_send(
                conn,
                {"type": "reject", "reason": f"duplicate join for {worker_id!r}"},
            )
            self._retire(conn)
            return
        if worker_id in self._restored_clocks and worker_id not in self._joined_ever:
            clock = self._restored_clocks[worker_id]
        elif self._started:
            # A returning worker resumes exactly after its last push the
            # server owns (the exactly-once watermark); a brand-new elastic
            # joiner starts at the cluster's slowest clock.
            watermark = self._push_watermarks.get(worker_id)
            if watermark is not None:
                clock = watermark + 1
            elif worker_id in self._chaos_workers:
                # A chaos-torn worker with no watermark lost its very first
                # push: replay from zero so no work is dropped (elastic
                # joiners below still start at the cluster's slowest clock).
                clock = 0
            else:
                clock = self._policy.clock_table.slowest_clock()
        else:
            clock = 0
        if self._injector is not None and self._started and worker_id in self._joined_ever:
            self._injector.record("rejoin", worker_id, clock=clock)
        elif worker_id in self._joined_ever or worker_id in self._restored_clocks:
            self._events.append(
                {"kind": "reconnect", "worker": worker_id, "clock": int(clock)}
            )
        self._server.register_worker(worker_id, clock)
        self._joined_ever.add(worker_id)
        now = time.monotonic()
        self._peers[worker_id] = _Peer(conn=conn, worker_id=worker_id, last_seen=now)
        conn.owner = worker_id
        self._last_progress = now

        reply = self._store.pull()
        welcome_frames = [
            _dense_frame(payload.shard, payload.buffer)
            for payload in reply.flat_weights
        ]
        welcome = {
            "type": "welcome",
            "worker": worker_id,
            "version": reply.version,
            "clock": clock,
            "started": self._started,
            "layout": self._layout_wire,
            "buffers": self._buffer_order,
            "want_codec_state": self._want_codec_state,
        }
        state = self._codec_states.get(worker_id) if self._codec is not None else None
        if state:
            keys = sorted(state)
            welcome["codec_state_keys"] = keys
            welcome_frames.extend(
                _dense_frame(_CODEC_SHARD_BASE + index, state[key])
                for index, key in enumerate(keys)
            )
        try:
            self._try_send(conn, welcome, tuple(welcome_frames), worker_id=worker_id)
        finally:
            reply.release()
        _LOGGER.info("%s joined at clock %d (%s)", worker_id, clock, conn.peername())

        if not self._started and self._expected <= set(self._peers):
            self._started = True
            self._start_time = time.monotonic()
            self._last_progress = self._start_time
            for peer in list(self._peers.values()):
                self._try_send(peer.conn, {"type": "start"}, worker_id=peer.worker_id)
            _LOGGER.info("all %d expected workers joined; training started", len(self._expected))

    def _worker_dead(self, worker_id: str, reason: str) -> None:
        peer = self._peers.pop(worker_id, None)
        if peer is None:
            return
        self._retire(peer.conn)
        # A death the fault plan scheduled is chaos, not failure: it becomes
        # a "crash" event (same as every other backend), not a run error.
        # The same goes for a socket the net-fault plan may tear (drop or
        # partition): the worker is alive and will ride the reconnect path.
        planned = (
            self._injector is not None
            and worker_id in self._injector.plan.crash_at()
        )
        chaos = worker_id in self._chaos_workers
        if not planned and not chaos:
            self._errors.append(f"{worker_id}: {reason}")
        self._last_progress = time.monotonic()
        if self._injector is not None:
            try:
                clock = self._policy.clock_table.clock(worker_id)
            except KeyError:
                clock = 0
            self._injector.record("crash", worker_id, clock=clock, reason=reason)
        elif chaos:
            self._events.append(
                {"kind": "connection_lost", "worker": worker_id, "reason": reason}
            )
        self._server.discard_staged(worker_id)
        if worker_id in self._server.worker_ids:
            released = self._server.deregister_worker(worker_id)
            for other in released:
                self._send_ok(other)
        _LOGGER.warning("%s removed: %s", worker_id, reason)
        if not self._started and worker_id in self._expected:
            # The start barrier can never complete without its membership.
            self._errors.append("server: expected worker died before start")
            self._abort_all("expected worker died before start")

    def _handle_done(self, conn, header: dict) -> None:
        worker_id = str(header["worker"])
        peer = self._peers.pop(worker_id, None)
        if peer is None or peer.conn is not conn:
            return
        report = dict(header["report"])
        report["mean_loss"] = _float_or_nan(report.get("mean_loss", "nan"))
        self._reports[worker_id] = WorkerReport(**report)
        # Worker-side chaos and retry events ride along with the report.
        self._events.extend(dict(event) for event in header.get("events") or [])
        if header.get("profile") is not None:
            self._profile = header["profile"]
        self._retire(peer.conn)
        self._last_progress = time.monotonic()
        if worker_id in self._server.worker_ids:
            released = self._server.deregister_worker(worker_id)
            for other in released:
                self._send_ok(other)

    def _abort_all(self, reason: str) -> None:
        self._aborted = True
        self._abort_deadline = time.monotonic() + 1.0
        for peer in list(self._peers.values()):
            self._try_send(peer.conn, {"type": "abort", "reason": reason})
            self._retire(peer.conn)
        self._peers.clear()

    def _try_send(self, conn, header: dict, frames=(), worker_id: str | None = None) -> bool:
        try:
            conn.send(header, tuple(frames))
            return True
        except ConnectionClosed:
            if worker_id is not None:
                self._worker_dead(worker_id, "connection lost while sending")
            return False

    # -- training ------------------------------------------------------
    def _handle_push(self, conn, header: dict, frames) -> None:
        worker_id = str(header["worker"])
        peer = self._peers.get(worker_id)
        if peer is None or peer.conn is not conn:
            return  # push raced a deregistration; the worker will rejoin
        now = time.monotonic()
        peer.last_seen = now
        self._last_progress = now
        timestamp = float(header["timestamp"])
        previous = self._last_push_time.get(worker_id)
        self._last_push_time[worker_id] = timestamp
        if previous is not None:
            self._idle_timeout = max(
                self._idle_timeout,
                self.plan.wait_timeout + 4.0 * (timestamp - previous),
            )

        gradient_frames = []
        buffer_frame = None
        codec_frames = []
        for frame in frames:
            if frame.shard >= _CODEC_SHARD_BASE:
                codec_frames.append(frame)
            elif frame.shard == _BUFFER_SHARD:
                buffer_frame = frame
            else:
                gradient_frames.append(frame)
        buffers = (
            _unpack_buffers(decode_shard(buffer_frame), self._buffer_order)
            if buffer_frame is not None
            else {}
        )
        keys = header.get("codec_state_keys")
        if keys:
            # Copy: the decoded views alias this message's receive buffer,
            # but the residual state outlives it (until the next checkpoint).
            self._codec_states[worker_id] = {
                str(key): np.array(decode_shard(frame))
                for key, frame in zip(keys, codec_frames)
            }

        seq = header.get("seq")
        request = PushRequest(
            worker_id=worker_id,
            gradients={},
            base_version=int(header["base_version"]),
            timestamp=timestamp,
            buffers=buffers,
            local_loss=_float_or_nan(header.get("loss", "nan")),
            flat_gradients=None,
            encoded_gradients=tuple(gradient_frames),
            codec=header.get("codec"),
            seq=None if seq is None else int(seq),
        )
        watermark = self._push_watermarks.get(worker_id)
        if request.seq is not None and watermark is not None and request.seq <= watermark:
            # Exactly-once: a retransmission of a push this server already
            # owns (the worker never saw its OK, or replayed after a
            # reconnect).  Advance the policy clock — the worker's progress
            # is real — but leave weights, optimizer and staleness untouched.
            response = self._server.acknowledge_duplicate(request)
            self._events.append(
                {
                    "kind": "duplicate_push",
                    "worker": worker_id,
                    "seq": request.seq,
                    "watermark": watermark,
                }
            )
        else:
            response = self._server.handle_push(request)
            if request.seq is not None:
                self._push_watermarks[worker_id] = request.seq
        for released in response.released_workers:
            self._send_ok(released)
        if response.release_now:
            self._send_ok(worker_id)

        plan = self.plan
        if (
            plan.evaluate_every_pushes > 0
            and self._server.pushes_handled % plan.evaluate_every_pushes == 0
        ):
            accuracy, loss = self._evaluate()
            self._eval_times.append(time.monotonic() - (self._start_time or now))
            self._eval_accuracies.append(accuracy)
            self._eval_losses.append(loss)
        if (
            self._checkpoint is not None
            and plan.checkpoint_every_pushes > 0
            and self._server.pushes_handled % plan.checkpoint_every_pushes == 0
        ):
            self._save_checkpoint()

    def _send_ok(self, worker_id: str) -> None:
        peer = self._peers.get(worker_id)
        if peer is None:
            return
        reply = self._store.pull()
        try:
            self._try_send(
                peer.conn,
                {"type": "ok", "version": reply.version},
                tuple(
                    _dense_frame(payload.shard, payload.buffer)
                    for payload in reply.flat_weights
                ),
                worker_id=worker_id,
            )
        finally:
            reply.release()

    # -- persistence and teardown --------------------------------------
    def _save_checkpoint(self) -> None:
        save_checkpoint(
            self._checkpoint,
            self._store,
            self._server.optimizer,
            paradigm=self.plan.paradigm,
            extra={
                "worker_clocks": self._policy.clock_table.clocks(),
                # Watermarks and event history travel with the weights so a
                # restarted server dedups retransmissions consistently with
                # the state it restored, and the result's event log spans
                # every incarnation.
                "push_watermarks": dict(self._push_watermarks),
                "events": _json_safe(list(self._events)),
                "restarts": self._restarts,
            },
            codec_states=self._codec_states or None,
        )

    def _graceful_restart(self) -> None:
        """SIGTERM path: persist everything, tell workers to come back."""
        if self._checkpoint is not None:
            self._save_checkpoint()
            _LOGGER.info("checkpointed to %s for restart", self._checkpoint)
        for peer in list(self._peers.values()):
            self._try_send(peer.conn, {"type": "restart"})
            self._retire(peer.conn)
        self._peers.clear()

    def _finish(self) -> TcpTrainingResult:
        plan = self.plan
        wall_time = (
            time.monotonic() - self._start_time if self._start_time is not None else 0.0
        )
        # Apply the tail window of a buffered robust aggregator before the
        # final evaluation sees the weights.
        self._server.flush_staged()
        for worker_id, report in self._reports.items():
            try:
                self._policy.clock_table.record_wait(worker_id, report.total_wait_time)
            except KeyError:
                pass  # finished workers are deregistered from the table
        accuracy, loss = self._evaluate()
        self._eval_times.append(wall_time)
        self._eval_accuracies.append(accuracy)
        self._eval_losses.append(loss)
        if self._checkpoint is not None:
            self._save_checkpoint()

        ordered_ids = [f"worker-{index}" for index in range(plan.num_workers)]
        ordered_ids += sorted(self._joined_ever - set(ordered_ids))
        reports = [
            self._reports.get(
                worker_id,
                WorkerReport(
                    worker_id=worker_id,
                    iterations=0,
                    samples_processed=0,
                    total_wait_time=0.0,
                    total_compute_time=0.0,
                    mean_loss=float("nan"),
                ),
            )
            for worker_id in ordered_ids
        ]
        statistics = self._server.statistics()
        statistics["tcp_bytes_sent"] = self._wire_sent
        statistics["tcp_bytes_received"] = self._wire_received
        result = TcpTrainingResult(
            wall_time=wall_time,
            worker_reports=reports,
            server_statistics=statistics,
            evaluation_times=self._eval_times,
            evaluation_accuracies=self._eval_accuracies,
            evaluation_losses=self._eval_losses,
            errors=self._errors,
            events=[dict(event) for event in self._events],
            profile=self._profile,
        )
        wire = result_to_wire(result)
        for watcher in self._watchers:
            try:
                watcher.send({"type": "result", "result": wire})
            except ConnectionClosed:
                pass
        return result


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
class _Heartbeat:
    """Background thread pinging the server every ``interval`` seconds."""

    def __init__(self, conn: TcpConnection, worker_id: str, interval: float) -> None:
        self._conn = conn
        self._worker_id = worker_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{worker_id}", daemon=True
        )

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._conn.send({"type": "heartbeat", "worker": self._worker_id})
            except ConnectionClosed:
                return  # the main loop will notice and reconnect

    def stop(self) -> None:
        self._stop.set()


def _build_tcp_worker(plan: TcpTrainingPlan, index: int, layout, with_profiler: bool):
    """(Re)build this worker's replica, partition and codec from the seed.

    Deterministic by construction: a rebuild is byte-identical to the
    original build, which is what lets a rejoining worker reconstruct the
    exact state a given resume clock implies (plus ``loader.skip``).
    """
    workload = plan.build_workload()
    streams = RngStream(plan.seed)
    from repro.ps.coordinator import build_worker, partition_for_workers

    global_model = workload.model_builder(streams.get("init"))
    partitions = partition_for_workers(streams, workload.train_dataset, plan.num_workers)
    worker = build_worker(
        index,
        partitions,
        global_model,
        workload.model_builder,
        streams,
        batch_size=plan.batch_size,
        micro_batches=plan.micro_batches,
        use_workspace=plan.use_workspace,
    )
    profiler = None
    if with_profiler:
        from repro.utils.profiler import LayerProfiler

        profiler = LayerProfiler(worker.model, loss_fn=worker.loss_fn).attach()
    codec = _plan_codec(plan)
    if codec is not None:
        codec.reseed(streams.get(f"codec-{index}"))
    worker.attach_flat_layout(((0, layout),))
    if codec is not None:
        worker.set_codec(codec)
    return worker, profiler


def _load_weights(worker, layout, header: dict, frames) -> None:
    """Feed the weight frame of a welcome/ok message into the replica."""
    weight_frames = [frame for frame in frames if frame.shard < _BUFFER_SHARD]
    payloads = tuple(
        FlatPullPayload(shard=frame.shard, buffer=decode_shard(frame), layout=layout)
        for frame in weight_frames
    )
    worker.load_reply(
        PullReply(
            weights={},
            buffers={},
            version=int(header["version"]),
            flat_weights=payloads,
            wire_nbytes=sum(frame.nbytes for frame in weight_frames),
        )
    )


def _load_codec_state(worker, header: dict, frames) -> None:
    keys = header.get("codec_state_keys")
    if not keys or worker.codec is None:
        return
    state_frames = [frame for frame in frames if frame.shard >= _CODEC_SHARD_BASE]
    worker.codec.load_state_dict(
        {str(key): np.array(decode_shard(frame)) for key, frame in zip(keys, state_frames)}
    )


def _join_server(
    plan: TcpTrainingPlan,
    worker_id: str,
    address: str,
    timeout: float,
    chaos: bool = False,
):
    """Connect (with retry/backoff), join, and return the welcome.

    ``timeout`` bounds the connect *and* the welcome wait — a rejoin
    under a retry budget must pay one attempt for an unanswered join,
    not the whole budget.  ``chaos`` marks this worker as one whose
    connection the chaos plan may tear: a standalone server (spec
    without ``net_faults``) learns it from the join envelope, so the
    tears stay events rather than run errors.
    """
    conn = connect_tcp(address, timeout=timeout)
    header = {"type": "join", "worker": worker_id, "codec": plan.compression}
    if chaos:
        header["chaos"] = True
    conn.send(header)
    while True:
        header, frames = conn.recv(timeout=timeout)
        kind = header.get("type")
        if kind == "welcome":
            return conn, header, frames
        if kind == "reject":
            conn.close()
            raise RuntimeError(f"server rejected join: {header.get('reason')}")
        # anything else (stray start/ok from a past life) is ignorable here


def _await_start(conn: TcpConnection, plan: TcpTrainingPlan):
    """Block until the server broadcasts ``start`` (or abort/restart)."""
    while True:
        header, _ = conn.recv(timeout=plan.wait_timeout)
        kind = header.get("type")
        if kind in ("start", "abort", "restart"):
            return header


class _RunAborted(Exception):
    """The server told this worker the run is over."""


def run_tcp_worker(plan: TcpTrainingPlan, index: int, address: str | None = None) -> None:
    """Entry point of one TCP worker (run in its own process).

    Joins the server at ``address`` (default: the plan's), trains until
    ``iterations_per_worker`` pushes are acknowledged, and reports.  A
    connection loss or a ``restart`` message triggers the reconnect path:
    retry/backoff back to the address, rejoin, and resume from the clock
    the server assigns — rebuilding the replica and fast-forwarding the
    data stream when that clock disagrees with local progress.
    """
    worker_id = f"worker-{index}"
    address = address or plan.address
    conn: TcpConnection | None = None
    heartbeat: _Heartbeat | None = None
    net_plan = parse_net_fault_specs(
        plan.net_faults, [f"worker-{i}" for i in range(plan.num_workers)]
    )
    schedule = (
        NetFaultSchedule(net_plan, worker_id, plan.seed)
        if net_plan.for_worker(worker_id)
        else None
    )
    worker_events: list[dict] = []

    def rejoin():
        """Reconnect after a server restart (or lost connection)."""
        nonlocal conn, heartbeat, worker, profiler, completed, drawn, want_state
        if heartbeat is not None:
            heartbeat.stop()
        if conn is not None:
            conn.close()
        if schedule is not None:
            # A partitioned worker cannot reach the server until the window
            # closes; the chaos layer holds the redial, not the server.
            schedule.hold_reconnect()
        conn, welcome, frames = _join_server(
            plan,
            worker_id,
            address,
            timeout=min(plan.wait_timeout, 10.0),
            chaos=net_plan.tears_connections(worker_id),
        )
        if schedule is not None:
            conn = ChaosConnection(conn, schedule)
        completed = int(welcome["clock"])
        want_state = bool(welcome.get("want_codec_state", False))
        if completed != drawn:
            # The server resumed us at a clock our stateful data stream has
            # moved past (or never reached): rebuild deterministically and
            # fast-forward, so the recomputed iterations replay the exact
            # batches an uninterrupted run would have drawn.
            if profiler is not None:
                profiler.detach()
                profiler = None
            worker, _ = _build_tcp_worker(plan, index, layout, with_profiler=False)
            worker.loader.skip(completed * plan.micro_batches)
            drawn = completed
        _load_codec_state(worker, welcome, frames)
        _load_weights(worker, layout, welcome, frames)
        heartbeat = _Heartbeat(conn, worker_id, plan.heartbeat_interval).start()
        if not welcome["started"]:
            header = _await_start(conn, plan)
            if header.get("type") != "start":
                raise _RunAborted(header.get("reason", "server went away"))

    def recover(reason: str):
        """Budgeted rejoin: bounded exponential backoff, jittered sleeps.

        Retries transient failures (server restarting, the server still
        holding our half-dead old socket → 'duplicate join' rejects) and
        fails the worker loudly once the budget is spent — a dead server
        must never wedge the training loop forever.
        """
        budget = RetryBudget(
            max_attempts=8, base_delay=0.1, max_delay=2.0, deadline=plan.wait_timeout
        )
        last_error: Exception | None = None
        for attempt in budget.attempts():
            try:
                rejoin()
                worker_events.append(
                    {
                        "kind": "retry",
                        "worker": worker_id,
                        "seq": completed,
                        "attempts": attempt + 1,
                        "reason": reason,
                    }
                )
                return
            except (ConnectionError, TimeoutError, OSError) as error:
                last_error = error
            except RuntimeError as error:
                if "duplicate" not in str(error):
                    raise
                last_error = error
        raise RuntimeError(
            f"{worker_id}: reconnect budget exhausted after {reason}: {last_error}"
        )

    try:
        conn, welcome, frames = _join_server(
            plan,
            worker_id,
            address,
            timeout=plan.wait_timeout,
            chaos=net_plan.tears_connections(worker_id),
        )
        if schedule is not None:
            conn = ChaosConnection(conn, schedule)
        layout = _layout_from_wire(welcome["layout"])
        buffer_order = welcome["buffers"]
        want_state = bool(welcome.get("want_codec_state", False))
        completed = int(welcome["clock"])
        worker, profiler = _build_tcp_worker(
            plan, index, layout, with_profiler=plan.profile and index == 0
        )
        drawn = completed
        if completed:
            worker.loader.skip(completed * plan.micro_batches)
        _load_codec_state(worker, welcome, frames)
        _load_weights(worker, layout, welcome, frames)
        heartbeat = _Heartbeat(conn, worker_id, plan.heartbeat_interval).start()
        if not welcome["started"]:
            header = _await_start(conn, plan)
            if header.get("type") != "start":
                raise _RunAborted(header.get("reason", "server went away"))

        if schedule is not None:
            # Partition windows count from here, not process startup —
            # model build and data loading must not eat the window.
            schedule.mark_start()
        start = time.monotonic()
        slowdown = plan.slowdowns.get(worker_id, 0.0)
        crash_iteration = plan.crash_at.get(worker_id)
        crash_after = plan.crash_after_push.get(worker_id)
        fault_plan = parse_fault_specs(
            plan.faults, [f"worker-{i}" for i in range(plan.num_workers)]
        )
        fault_crash = fault_plan.crash_at().get(worker_id)
        fault_rejoin = fault_plan.rejoin_after().get(worker_id)
        flaky = fault_plan.flaky_for(worker_id)
        total_wait = 0.0
        total_compute = 0.0

        while completed < plan.iterations_per_worker:
            if crash_iteration is not None and completed >= crash_iteration:
                os._exit(1)  # test hook: die like a real crash, no cleanup
            if fault_crash is not None and completed >= fault_crash:
                # Injected crash: drop the socket like a real death.  The
                # server sees EOF, records the crash, deregisters us and
                # re-bounds the policy over the survivors.
                fault_crash = None  # fires once
                if heartbeat is not None:
                    heartbeat.stop()
                conn.close()
                if fault_rejoin is None:
                    _LOGGER.info("worker %s: injected crash (permanent)", worker_id)
                    return
                time.sleep(fault_rejoin * plan.heartbeat_interval)
                rejoin()  # elastic membership: resume at the server's clock
                continue
            compute_start = time.monotonic()
            computation = worker.compute_gradients()
            drawn += 1
            if slowdown > 0:
                time.sleep(slowdown)
            if flaky is not None and flaky.slow(completed):
                time.sleep(flaky.delay)
            compute_elapsed = time.monotonic() - compute_start
            total_compute += compute_elapsed

            flat_gradients, encoded, codec_name = worker.prepare_push(computation)
            if encoded is not None:
                frames_out = list(encoded)
            else:
                frames_out = [
                    _dense_frame(shard, buffer)
                    for shard, buffer in sorted((flat_gradients or {}).items())
                ]
            header = {
                "type": "push",
                "worker": worker_id,
                # Sequence number = iteration index: the server's per-worker
                # watermark dedups any retransmission, so a push whose OK
                # was lost is applied exactly once.
                "seq": completed,
                "base_version": computation.base_version,
                "timestamp": time.monotonic() - start,
                "loss": _json_safe(float(computation.loss)),
                "samples": computation.samples,
                "codec": codec_name,
            }
            if computation.buffers and buffer_order:
                frames_out.append(
                    _dense_frame(
                        _BUFFER_SHARD, _pack_buffers(computation.buffers, buffer_order)
                    )
                )
            if want_state and worker.codec is not None:
                state = worker.codec.state_dict()
                if state:
                    keys = sorted(state)
                    header["codec_state_keys"] = keys
                    frames_out.extend(
                        _dense_frame(_CODEC_SHARD_BASE + position, state[key])
                        for position, key in enumerate(keys)
                    )

            try:
                conn.send(header, tuple(frames_out))
                if crash_after is not None and completed >= crash_after:
                    os._exit(1)  # test hook: die mid-protocol, before the OK
                # The OK may take a while: peers run the same per-iteration
                # workload, so this worker's own compute time bounds a
                # healthy wait (same guard as the process runtime).
                wait_start = time.monotonic()
                ok_timeout = plan.wait_timeout + 4.0 * compute_elapsed
                while True:
                    reply, reply_frames = conn.recv(timeout=ok_timeout)
                    kind = reply.get("type")
                    if kind in ("ok", "abort", "restart"):
                        break
            except ConnectionClosed as closed:
                recover(str(closed) or "connection closed")
                continue
            except TimeoutError:
                # The OK never came (hung or wedged server).  Redial and
                # retransmit: the server's per-worker watermark makes a
                # push whose OK was lost idempotent.
                recover("push acknowledgement timed out")
                continue
            if kind == "abort":
                raise _RunAborted(reply.get("reason", "aborted"))
            if kind == "restart":
                recover("server restart")
                continue
            total_wait += time.monotonic() - wait_start
            _load_weights(worker, layout, reply, reply_frames)
            completed += 1

        profile = None
        if profiler is not None:
            profiler.detach()
            profile = {"worker_id": worker_id, **profiler.as_dict()}
        conn.send(
            {
                "type": "done",
                "worker": worker_id,
                "events": _json_safe(
                    [*(schedule.events if schedule is not None else []), *worker_events]
                ),
                "report": _json_safe(
                    {
                        "worker_id": worker_id,
                        "iterations": worker.iterations,
                        "samples_processed": worker.samples_processed,
                        "total_wait_time": total_wait,
                        "total_compute_time": total_compute,
                        "mean_loss": worker.mean_loss,
                        "pushed_wire_bytes": worker.pushed_wire_bytes,
                        "pushed_raw_bytes": worker.pushed_raw_bytes,
                        "pulled_bytes": worker.pulled_bytes,
                    }
                ),
                "profile": _json_safe(profile) if profile is not None else None,
            }
        )
    except _RunAborted as stop:
        _LOGGER.info("worker %s stopping: %s", worker_id, stop)
    except Exception as error:  # noqa: BLE001 - report, then die quietly
        _LOGGER.exception("worker %s failed", worker_id)
        if conn is not None:
            try:
                conn.send(
                    {"type": "error", "worker": worker_id, "message": str(error)}
                )
            except ConnectionClosed:
                pass
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if conn is not None:
            conn.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def _serve_entry(plan: TcpTrainingPlan, ready_conn) -> None:
    """Server child-process entry: report the bound address, then serve."""

    def ready(address: str) -> None:
        ready_conn.send(address)
        ready_conn.close()

    TcpServer(plan, ready_callback=ready).serve()


def _worker_entry(plan: TcpTrainingPlan, index: int, address: str) -> None:
    run_tcp_worker(plan, index, address)


def _supervised_serve_entry(plan: TcpTrainingPlan, ready_conn, result_conn) -> None:
    """Server child under a supervisor: report address, serve, ship outcome.

    The result pipe carries ``("result", wire)`` on completion or
    ``("restart", None)`` after a graceful SIGTERM checkpoint; a hard
    crash (``kill -9``) ships nothing, which is exactly how the
    supervisor tells the two apart.
    """

    def ready(address: str) -> None:
        ready_conn.send(address)
        ready_conn.close()

    result = TcpServer(plan, ready_callback=ready).serve()
    try:
        if result is None:
            result_conn.send(("restart", None))
        else:
            result_conn.send(("result", result_to_wire(result)))
        result_conn.close()
    except (BrokenPipeError, OSError):  # pragma: no cover - supervisor died
        pass


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
        if context is None or isinstance(context, str):
            from repro.ps.process_runtime import default_context_name

            self.context = multiprocessing.get_context(
                context or default_context_name()
            )
        else:
            self.context = context
        self._stop = threading.Event()
        self.bound_address: str | None = None
        self.server_pid: int | None = None
        self.restarts = 0
        self._child = None

    def request_shutdown(self, *_args) -> None:
        """Stop supervising: forward SIGTERM to the child, don't respawn."""
        self._stop.set()

    def run(self) -> TcpTrainingResult | None:
        """Supervise until the run completes; ``None`` after a shutdown."""
        plan = self.plan
        while True:
            ready_recv, ready_send = self.context.Pipe(duplex=False)
            result_recv, result_send = self.context.Pipe(duplex=False)
            child = self.context.Process(
                target=_supervised_serve_entry,
                args=(plan, ready_send, result_send),
                name="repro-tcp-server",
                daemon=True,
            )
            child.start()
            self._child = child
            self.server_pid = child.pid
            ready_send.close()
            result_send.close()
            if not ready_recv.poll(plan.wait_timeout):
                child.terminate()
                child.join(timeout=5.0)
                return TcpTrainingResult(
                    wall_time=0.0,
                    worker_reports=[],
                    server_statistics={},
                    errors=["supervised tcp server never reported its address"],
                )
            address = ready_recv.recv()
            ready_recv.close()
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
                return result_from_wire(payload[1])
            if self._stop.is_set():
                return None
            # Either a graceful external SIGTERM ("restart") or a hard crash
            # (no payload at all): relaunch from the latest checkpoint.
            self.restarts += 1
            if self.restarts > self.max_restarts:
                return TcpTrainingResult(
                    wall_time=0.0,
                    worker_reports=[],
                    server_statistics={},
                    errors=[
                        f"supervised tcp server died {self.restarts} times "
                        f"(limit {self.max_restarts}); giving up"
                    ],
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
        if context is None or isinstance(context, str):
            from repro.ps.process_runtime import default_context_name

            self.context = multiprocessing.get_context(
                context or default_context_name()
            )
        else:
            self.context = context
        self._result: TcpTrainingResult | None = None

    def run(self) -> TcpTrainingResult:
        """Run to completion; failures surface in ``result.errors``."""
        plan = self.plan
        processes = []
        server_process = None
        watch: TcpConnection | None = None
        try:
            if self.external_address is not None:
                address = self.external_address
            else:
                ready_recv, ready_send = self.context.Pipe(duplex=False)
                server_process = self.context.Process(
                    target=_serve_entry,
                    args=(plan, ready_send),
                    name="repro-tcp-server",
                    daemon=True,
                )
                server_process.start()
                processes.append(server_process)
                ready_send.close()
                if not ready_recv.poll(plan.wait_timeout):
                    raise RuntimeError("tcp server did not report its address")
                address = ready_recv.recv()
                ready_recv.close()
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
            result = self._await_result(watch, server_process, address)
            self._result = result
            return result
        finally:
            if watch is not None:
                watch.close()
            for process in processes:
                process.join(timeout=5.0)
            for process in processes:
                if process.is_alive():  # pragma: no cover - hard-abort path
                    process.terminate()
                    process.join(timeout=5.0)

    def _await_result(self, watch, server_process, address) -> TcpTrainingResult:
        """Wait on the watch channel, tolerating a restarting server.

        No absolute deadline (the server aborts itself on stalls); the
        coordinator only needs to notice the server dying without a
        result, or follow it across a checkpoint/restart cycle.
        """
        try:
            while True:
                try:
                    header, _ = watch.recv(timeout=0.5)
                except TimeoutError:
                    if server_process is not None and not server_process.is_alive():
                        try:
                            header, _ = watch.recv(timeout=0.5)
                        except (TimeoutError, ConnectionClosed):
                            return self._dead_server_result()
                        if header.get("type") == "result":
                            return result_from_wire(header["result"])
                        return self._dead_server_result()
                    continue
                except ConnectionClosed:
                    # Server went away: either a graceful restart (reconnect,
                    # like the workers do) or a death (error result).
                    try:
                        watch.close()
                        watch = connect_tcp(address, timeout=self.plan.wait_timeout)
                        watch.send({"type": "watch"})
                        continue
                    except (ConnectionError, OSError):
                        return self._dead_server_result()
                if header.get("type") == "result":
                    return result_from_wire(header["result"])
        finally:
            watch.close()

    @staticmethod
    def _dead_server_result() -> TcpTrainingResult:
        return TcpTrainingResult(
            wall_time=0.0,
            worker_reports=[],
            server_statistics={},
            errors=["tcp server died without reporting a result"],
        )
