"""Update-log pulls on the seam: ``ServerSession`` + ``Mirror``, no sockets.

Scripted workers push codec-encoded gradients through a real
``ServerSession`` and answer every OK the way the tcp link does — replay
the log through a ``Mirror``, or reload it from the dense reply.  After
every OK the mirror must hold the store's exact bytes (weights *and*
momentum), whatever the codec, the update rule or the membership did in
between.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.models import mlp
from repro.optim.sgd import SGD
from repro.ps.compression import make_codec
from repro.ps.coordinator import DistributedTrainingConfig
from repro.ps.server import ParameterServer
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


class Cluster:
    """A ``ServerSession`` and scripted workers that answer OKs like the tcp link."""

    def __init__(self, codec, optimizer=None, dtype="float64", buffers=None, **plan_fields):
        fields = {"paradigm": "asp", "paradigm_kwargs": {}, **plan_fields}
        self.plan = DistributedTrainingConfig(
            num_workers=3, batch_size=16, dtype=dtype, **fields
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
        self.codecs, self.mirrors, self.seqs = {}, {}, {}
        self.replies = []  # (worker, "log" | "dense", entry count)
        self.clock = 0.0
        for index, worker_id in enumerate(self.plan.worker_ids):
            self.codecs[worker_id] = make_codec(codec)
            self.codecs[worker_id].reseed(np.random.default_rng(index))
            self.join(worker_id)

    def join(self, worker_id, clock=0):
        self.session.join(worker_id, clock)
        self.seqs[worker_id] = clock
        self.dense(worker_id, welcome=True)

    def dense(self, worker_id, welcome=False):
        reply, mirrored, velocity = self.session.dense_pull(worker_id, welcome=welcome)
        try:
            if mirrored:
                self.mirrors[worker_id] = Mirror(
                    self.make_optimizer(),
                    self.layout,
                    reply.flat_weights[0].buffer,
                    reply.version,
                    velocity,
                )
            else:
                self.mirrors.pop(worker_id, None)
        finally:
            reply.release()
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
        response = self.session.push(
            worker_id,
            {"base_version": base_version, "timestamp": self.clock, "loss": 1.0, "seq": seq},
            **gradients,
        )
        for released in response.to_release:
            self.ok(released)
        return response

    def ok(self, worker_id):
        entries = self.session.updates_for(worker_id)
        if entries is None:
            self.dense(worker_id)
            return
        reply = self.mirrors[worker_id].replay(entries, self.store.version)
        reply.release()
        self.replies.append((worker_id, "log", len(entries)))
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


def test_a_version_gap_fails_the_worker_loudly(tiny_flat_datasets):
    train, test = tiny_flat_datasets
    workload = SimpleNamespace(
        model_builder=lambda rng: mlp(
            input_dim=train.inputs.shape[1], hidden_dims=(8,), num_classes=4, rng=rng
        ),
        train_dataset=train,
        test_dataset=test,
    )
    plan = DistributedTrainingConfig(num_workers=1, batch_size=16, compression="topk:0.01")
    model = workload.model_builder(RngStream(plan.seed).get("init"))
    store = make_store({name: p.data for name, p in model.named_parameters()})
    link = GappedLink(store, build_optimizer(plan))
    loop = WorkerLoop(
        "worker-0", link, iterations=4, wait_timeout=5.0,
        build=lambda: replica_builder(plan, workload)(0, link.layouts),
    )
    assert loop.run() is None and link.reports == []
    (message,) = link.errors
    assert "version gap" in message
    assert loop.completed == 0  # nothing was trained on the unreplayed weights


def test_build_server_uses_the_one_optimizer_recipe():
    plan = DistributedTrainingConfig(momentum=0.5, weight_decay=0.01, learning_rate=0.2)
    store = make_store({"w": np.zeros(3)})
    server = build_server(plan, store)
    assert isinstance(server, ParameterServer)
    assert server.optimizer.state_dict() == build_optimizer(plan).state_dict()
