"""Update-log pulls on the seam: ``ServerSession`` + ``Mirror``, no sockets.

Scripted workers push codec-encoded gradients through a real
``ServerSession``; every log OK is written by the tcp hub's own ``ok``
and read by a real ``_TcpLink`` (over connections that keep
the message instead of sending it), so a worker's own push comes back as
its ``seq`` and is replayed from the frames the link kept.  After every OK
the mirror must hold the store's exact bytes (weights *and* momentum),
whatever the codec, the update rule or the membership did in between.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.models import mlp
from repro.optim.sgd import SGD
from repro.ps.compression import make_codec
from repro.ps.coordinator import DistributedTrainingConfig
from repro.ps.server import ParameterServer
from repro.ps.tcp_runtime import TcpTrainingPlan, _Peer, _TcpHub, _TcpLink
from repro.ps.session import (
    LogEntry,
    Mirror,
    Resume,
    ServerSession,
    UpdateLog,
    WorkerLoop,
    build_optimizer,
    build_server,
    replica_builder,
)
from repro.ps.sharding import make_store
from repro.utils.rng import RngStream

OPTIMIZERS = {
    "plain": dict(momentum=0.0),
    "momentum": dict(momentum=0.9),
    "nesterov": dict(momentum=0.9, nesterov=True),
    "weight_decay": dict(momentum=0.9, weight_decay=1e-3),
}


def weight_bytes(store) -> bytes:
    reply = store.pull()
    try:
        return reply.flat_weights[0].buffer.tobytes()
    finally:
        reply.release()


def velocity_bytes(optimizer) -> dict:
    return {k: v.tobytes() for k, v in optimizer.state_dict()["velocity"].items()}


class Wire:
    """Stands in for a ``TcpConnection``: keeps the last message sent, its
    header through JSON as on the wire."""

    def send(self, header, frames=()):
        self.header, self.frames = json.loads(json.dumps(header)), list(frames)


class Cluster:
    """A ``ServerSession`` and scripted workers whose log OKs travel from the
    tcp hub's ``ok`` to a tcp link's ``_log_reply``."""

    def __init__(self, codec, optimizer=None, dtype="float64", buffers=None, **plan_fields):
        fields = {"paradigm": "asp", "paradigm_kwargs": {}, **plan_fields}
        self.plan = TcpTrainingPlan(
            workload="mlp", scale_fields={}, num_workers=3, batch_size=16, dtype=dtype, **fields
        )
        self.make_optimizer = (
            (lambda: SGD(0.05, **optimizer)) if optimizer else (lambda: build_optimizer(self.plan))
        )
        model = mlp(input_dim=40, hidden_dims=(24,), num_classes=4, rng=RngStream(0).get("init"))
        self.store = make_store(
            {name: p.data for name, p in model.named_parameters()}, buffers, dtype=dtype
        )
        server = build_server(self.plan, self.store)
        server.optimizer = self.make_optimizer()
        self.session = ServerSession(server, self.plan.worker_ids)
        self.session.update_log = UpdateLog(self.store.version, self.store.nbytes)
        self.layout = self.store.flat_layouts[0][1]
        self.size = self.layout[-1].hi
        self.rng = np.random.default_rng(1)
        self.codecs, self.mirrors, self.seqs, self.links = {}, {}, {}, {}
        self.replies = []  # (worker, "log" | "dense", entry count)
        self.rows = {}  # worker -> the log rows of its last log OK
        self.clock = 0.0
        # Only the hub's ``ok`` runs, to the peers registered here.
        self.hub = _TcpHub(self.plan, self.session)
        for index, worker_id in enumerate(self.plan.worker_ids):
            self.codecs[worker_id] = make_codec(codec)
            self.codecs[worker_id].reseed(np.random.default_rng(index))
            self.links[worker_id] = _TcpLink(self.plan, index, "nowhere")
            self.links[worker_id]._conn = Wire()
            self.hub._peers[worker_id] = _Peer(Wire(), worker_id, 0.0)
            self.join(worker_id)

    def join(self, worker_id, clock=0):
        """Join and take the welcome: the dense weights and optimizer state
        a mirror is built from (with this cluster's optimizer, which a plan
        cannot always express)."""
        self.session.join(worker_id, clock)
        self.seqs[worker_id] = clock
        ok = self.session.reply(worker_id, welcome=True)
        assert (ok.kind, ok.reason, ok.mirrored) == ("dense", "welcome", True)
        self.mirrors[worker_id] = Mirror(
            self.make_optimizer(), self.layout, ok.pull.flat_weights[0].buffer, ok.version,
            ok.velocity,
        )
        ok.pull.release()
        self.replies.append((worker_id, "dense", 0))

    def push(self, worker_id, base_version=None, seq=None, **gradients):
        mirror = self.mirrors.get(worker_id)
        if base_version is None:
            base_version = mirror.store.version if mirror else self.store.version
        if not gradients:
            gradient = self.rng.standard_normal(self.size)
            gradients = {"encoded": (self.codecs[worker_id].encode(0, gradient),)}
        if seq is None:
            seq = self.seqs[worker_id]
            self.seqs[worker_id] += 1
        self.clock += 1.0
        header = {"base_version": base_version, "timestamp": self.clock, "loss": 1.0, "seq": seq}
        # The link keeps the frames in flight; its envelope goes nowhere.
        self.links[worker_id].push(
            header, SimpleNamespace(buffers=None), None, gradients["encoded"]
        )
        response = self.session.push(worker_id, header, **gradients)
        for released in response.to_release:
            self.ok(released)
        return response

    def ok(self, worker_id):
        wire = self.hub._peers[worker_id].conn
        self.hub.ok(worker_id)
        if "log" not in wire.header:
            # A dense OK carries no optimizer state: no mirror from here on.
            self.mirrors.pop(worker_id, None)
            self.replies.append((worker_id, "dense", 0))
            return
        link = self.links[worker_id]
        link._mirror = self.mirrors[worker_id]
        link._log_reply(wire.header, wire.frames).release()
        self.rows[worker_id] = wire.header["log"]
        self.replies.append((worker_id, "log", len(wire.header["log"])))
        self.assert_mirrored(worker_id)

    def assert_mirrored(self, worker_id):
        mirror = self.mirrors[worker_id]
        assert mirror.store.version == self.store.version
        assert weight_bytes(mirror.store) == weight_bytes(self.store)
        assert velocity_bytes(mirror.optimizer) == velocity_bytes(self.session.server.optimizer)

    def dense_pull_events(self):
        return [e for e in self.session.events if e["kind"] == "dense_pull"]


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("codec", ["topk:0.01", "int8", "fp16"])
def test_mirror_matches_the_store_after_every_ok(codec, optimizer):
    cluster = Cluster(codec, OPTIMIZERS[optimizer])
    a, b, c = cluster.plan.worker_ids
    for _ in range(3):  # gradient scale 1/3
        for worker_id in (a, b, c):
            cluster.push(worker_id)
    for released in cluster.session.leave(c):  # scale 1/3 -> 1/2, mid-log for a and b
        cluster.ok(released)
    for _ in range(3):
        cluster.push(a)
        cluster.push(b)
    # c rejoins at version > 0: the welcome re-mirrors it (weights and
    # momentum), and its very next OK is a log reply again.
    cluster.join(c, clock=3)
    cluster.assert_mirrored(c)
    for worker_id in (c, a, b, c):
        cluster.push(worker_id)
    assert cluster.replies[-4:] == [(c, "log", 1), (a, "log", 3), (b, "log", 3), (c, "log", 3)]
    kinds = [kind for _, kind, _ in cluster.replies]
    assert kinds.count("dense") == 4  # the four welcomes, nothing else
    assert max(count for _, _, count in cluster.replies) == 3
    assert cluster.dense_pull_events() == []
    replies = cluster.session.pull_replies
    assert (replies["log"], replies["dense"]) == (kinds.count("log"), 4)
    # Every OK here answers the recipient's push in flight: named by its seq
    # (c counts on from its rejoin clock), never echoed, never counted as sent.
    assert [row[3:] for row in cluster.rows[c]] == [[1, None], [1, None], [0, 4]]
    foreign = sum(count - 1 for _, kind, count in cluster.replies if kind == "log")
    assert replies["log_bytes"] == foreign * cluster.session.update_log.entries[0].nbytes
    scales = {entry.scale for entry in cluster.session.update_log.entries}
    assert scales <= {1 / 3, 1 / 2} and 1 / 3 in scales


def test_float32_store_mirrors_bit_for_bit():
    cluster = Cluster("topk:0.01", OPTIMIZERS["momentum"], dtype="float32")
    for _ in range(4):
        for worker_id in cluster.plan.worker_ids:
            cluster.push(worker_id)
    assert cluster.mirrors["worker-0"].store.dtype == np.float32
    assert cluster.dense_pull_events() == []


def test_a_span_outweighing_the_dense_weights_is_answered_densely():
    # fp16 frames are a quarter of the float64 model: the log holds three.
    cluster = Cluster("fp16", OPTIMIZERS["momentum"])
    a, b, _ = cluster.plan.worker_ids
    for _ in range(4):
        cluster.push(a)
    log = cluster.session.update_log
    assert log.nbytes < log.budget == cluster.store.nbytes and len(log.entries) == 3
    cluster.push(b)  # base 0: four foreign entries + its own >= the dense weights
    assert cluster.replies[-1] == (b, "dense", 0)
    (event,) = cluster.dense_pull_events()
    assert (event["worker"], event["reason"]) == (b, "bytes")
    # The dense OK carried no optimizer state, so b holds no mirror until its
    # next welcome: dense again, and the reason is not recorded twice.
    cluster.push(b)
    assert cluster.replies[-1] == (b, "dense", 0) and len(cluster.dense_pull_events()) == 1
    cluster.push(a)  # a kept up all along
    assert cluster.replies[-1] == (a, "log", 3)


def opaque_cases():
    byzantine = [{"worker": 2, "kind": "byzantine", "mode": "sign_flip", "after_clock": 1}]
    return {
        "median": dict(plan=dict(aggregation="median", paradigm="bsp"), push={}),
        "byzantine": dict(plan=dict(faults=byzantine), push={}),
        "buffers": dict(
            plan=dict(),
            buffers={"bn.running_mean": np.zeros(3)},
            push={"buffers": {"bn.running_mean": np.ones(3)}},
        ),
    }


@pytest.mark.parametrize("case", opaque_cases())
def test_an_update_the_frames_do_not_reproduce_forces_dense(case):
    fields = opaque_cases()[case]
    cluster = Cluster("topk:0.01", buffers=fields.get("buffers"), **fields["plan"])
    a, b, c = cluster.plan.worker_ids
    for worker_id in (a, b, c):  # c's first push is still honest
        gradient = cluster.rng.standard_normal(cluster.size)
        encoded = (cluster.codecs[worker_id].encode(0, gradient),)
        cluster.push(worker_id, encoded=encoded, **(fields["push"] if worker_id == c else {}))
    if case == "byzantine":
        assert [kind for _, kind, _ in cluster.replies[3:]] == ["log"] * 3
        cluster.push(c)  # corrupted: the store applied something else
        cluster.push(a)
    dense = [(w, kind) for w, kind, _ in cluster.replies[3:] if kind == "dense"]
    assert dense, cluster.replies
    assert {event["reason"] for event in cluster.dense_pull_events()} == {"opaque"}
    assert len(cluster.dense_pull_events()) == len({worker for worker, _ in dense})


def test_a_dense_push_is_never_logged():
    cluster = Cluster("topk:0.01")
    a, b, _ = cluster.plan.worker_ids
    cluster.push(a)
    cluster.push(b, encoded=(make_codec("none").encode(0, np.ones(cluster.size)),))
    assert cluster.replies[-1] == (b, "dense", 0)
    assert len(cluster.session.update_log.entries) == 0


def test_a_retransmitted_push_gets_an_empty_log():
    cluster = Cluster("int8", OPTIMIZERS["momentum"])
    a = cluster.plan.worker_ids[0]
    cluster.push(a)
    before = weight_bytes(cluster.store)
    response = cluster.push(a, seq=0)  # seq <= watermark: acknowledged, not applied
    assert response.new_version == 1 and weight_bytes(cluster.store) == before
    assert cluster.replies[-1] == (a, "log", 0)
    assert [e["kind"] for e in cluster.session.events] == ["duplicate_push"]


def test_an_ok_delayed_by_a_dssp_block_names_the_own_push_where_it_landed():
    cluster = Cluster(
        "topk:0.01", OPTIMIZERS["momentum"], paradigm="dssp",
        paradigm_kwargs={"s_lower": 1, "s_upper": 2},
    )
    a, b, c = cluster.plan.worker_ids
    cluster.push(b)
    cluster.push(a)
    assert cluster.push(a).to_release == ()  # two ahead of c: blocked, OK owed
    assert cluster.push(b).to_release == ()
    assert set(cluster.push(c).to_release) == {a, b, c}
    # b pulled at version 1 and pushed version 4: a's two pushes before its
    # own in the replay, c's after — [frames sent, seq] per entry.
    assert [row[0] for row in cluster.rows[b]] == [2, 3, 4, 5]
    assert [row[3:] for row in cluster.rows[b]] == [[1, None], [1, None], [0, 1], [1, None]]
    assert [row[3:] for row in cluster.rows[a]] == [[0, 1], [1, None], [1, None]]


@pytest.mark.parametrize("held", [None, 7])
def test_a_log_naming_a_push_the_link_does_not_hold_fails_loudly(held):
    cluster = Cluster("int8", OPTIMIZERS["momentum"], paradigm="bsp")
    a, b, c = cluster.plan.worker_ids
    cluster.push(a)  # blocked until the round is complete
    link = cluster.links[a]
    link._held = (held, link._held[1])  # it forgot the push, or kept another
    cluster.push(b)
    with pytest.raises(RuntimeError, match=f"names push seq 0 of worker-0, which holds seq {held}"):
        cluster.push(c)
    assert cluster.mirrors[a].store.version == 0  # nothing was replayed


def test_a_log_reply_must_account_for_every_frame_it_came_with():
    cluster = Cluster("fp16")
    a, b, _ = cluster.plan.worker_ids
    cluster.push(a)
    cluster.push(b)
    link, wire = cluster.links[b], cluster.hub._peers[b].conn
    assert [row[3:] for row in wire.header["log"]] == [[1, None], [0, 0]]
    for frames in (wire.frames * 2, []):  # one too many, one too few
        with pytest.raises(RuntimeError, match="update log counts"):
            link._log_reply(wire.header, frames)


def test_the_log_starts_over_at_a_version_it_did_not_see_coming():
    log = UpdateLog(version=5, budget=1000)
    frame = make_codec("none").encode(0, np.ones(4))
    log.record(6, 0.1, 0.5, (frame,))
    assert log.since(4, 6) == (None, "gap")
    assert [entry.version for entry in log.since(5, 6)[0]] == [6]
    frame.arrays[0][:] = 7.0  # the log kept its own copy
    assert log.entries[0].frames[0].arrays[0][0] == 1.0
    # A robust aggregator's flush moves the store between pushes: no entry
    # says what it applied, before or after the log hears of it.
    assert log.since(6, 7) == (None, "opaque")
    log.record(8, 0.1, 0.5, (frame,))  # 7 never came by
    assert log.since(7, 8) == (None, "opaque") and log.since(8, 8) == ([], None)


class GappedLink:
    """A link whose first OK skips a version of the log."""

    gradient_buffers = None

    def __init__(self, store, optimizer):
        self.store = store
        self.layouts = store.flat_layouts
        self.optimizer = optimizer
        self.errors, self.reports = [], []

    def open(self):
        reply = self.store.pull()
        self.mirror = Mirror(
            self.optimizer, self.layouts[0][1], reply.flat_weights[0].buffer, reply.version
        )
        return Resume(0, reply)

    def ready(self, worker):
        return True

    def push(self, header, computation, flat, encoded):
        self.encoded = encoded
        return True

    def await_ok(self, timeout):
        return self.mirror.replay([LogEntry(2, 0.05, 1.0, self.encoded)], 2)

    def done(self, report, profile):
        self.reports.append(report)

    def error(self, message):
        self.errors.append(message)


class ForgetfulLink(_TcpLink):
    """A real tcp link over a scripted connection (itself): the one OK it
    receives names a push — seq 7 — this worker never made."""

    def __init__(self, plan, store):
        super().__init__(plan, 0, "nowhere")
        self.store, self.sent, self._conn = store, [], self

    def open(self):
        self.layouts = self.store.flat_layouts
        reply = self.store.pull()
        self._mirror = Mirror(
            build_optimizer(self._plan), self.layouts[0][1],
            reply.flat_weights[0].buffer, reply.version,
        )
        return Resume(0, reply)

    def ready(self, worker):
        return True

    def send(self, header, frames=()):
        self.sent.append(header)

    def recv(self, timeout):
        return {"type": "ok", "version": 1, "log": [[1, 0.05, 1.0, 0, 7]]}, []

    @property
    def errors(self):
        return [header["message"] for header in self.sent if header["type"] == "error"]

    @property
    def reports(self):
        return [header for header in self.sent if header["type"] == "done"]


@pytest.mark.parametrize(
    "make_link, complaint",
    [
        (
            lambda plan, store: GappedLink(store, build_optimizer(plan)),
            "version gap: mirror at 0, reply at 2, the next entry is version 2",
        ),
        (ForgetfulLink, "names push seq 7 of worker-0, which holds seq 0"),
    ],
    ids=["version-gap", "unheld-seq"],
)
def test_a_log_the_mirror_cannot_replay_fails_the_worker_loudly(
    tiny_flat_datasets, make_link, complaint
):
    train, test = tiny_flat_datasets
    workload = SimpleNamespace(
        model_builder=lambda rng: mlp(
            input_dim=train.inputs.shape[1], hidden_dims=(8,), num_classes=4, rng=rng
        ),
        train_dataset=train,
        test_dataset=test,
    )
    plan = TcpTrainingPlan(
        workload="mlp", scale_fields={}, num_workers=1, batch_size=16, compression="topk:0.01"
    )
    model = workload.model_builder(RngStream(plan.seed).get("init"))
    store = make_store({name: p.data for name, p in model.named_parameters()})
    link = make_link(plan, store)
    loop = WorkerLoop(
        "worker-0", link, iterations=4, wait_timeout=5.0,
        build=lambda: replica_builder(plan, workload)(0, link.layouts),
    )
    assert loop.run() is None and link.reports == []
    (message,) = link.errors
    assert complaint in message
    assert loop.completed == 0  # nothing was trained on the unreplayed weights


def test_build_server_uses_the_one_optimizer_recipe():
    plan = DistributedTrainingConfig(momentum=0.5, weight_decay=0.01, learning_rate=0.2)
    store = make_store({"w": np.zeros(3)})
    server = build_server(plan, store)
    assert isinstance(server, ParameterServer)
    assert server.optimizer.state_dict() == build_optimizer(plan).state_dict()
