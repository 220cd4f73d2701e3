"""The step protocol without threads or sockets.

``WorkerLoop`` runs against a scripted in-memory link and ``ServerSession``
is fed hand-built pushes, so the protocol's corner cases — retransmissions,
resume-at-clock, leaves, aborts, missing reports — are exact rather than
raced.  Also pins the one plan validation the three runtimes share.
"""

import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.loader import MiniBatchLoader
from repro.data.partitioner import partition_dataset, partition_indices
from repro.experiments.config import TINY
from repro.models import mlp
from repro.ps.compression import make_codec
from repro.ps.plan import TrainingPlan, assemble, build_server, replica_builder
from repro.ps.process_runtime import ProcessTrainingPlan
from repro.ps.faults import NET_FAULT_KINDS
from repro.ps.session import (
    Resume,
    ServerEvent,
    ServerLoop,
    ServerSession,
    UpdateLog,
    WorkerLoop,
)
from repro.ps.sharding import make_store
from repro.ps.tcp_runtime import TcpTrainingPlan
from repro.utils.rng import RngStream


@pytest.fixture
def workload(tiny_flat_datasets):
    train, test = tiny_flat_datasets
    return SimpleNamespace(
        model_builder=lambda rng: mlp(
            input_dim=train.inputs.shape[1], hidden_dims=(8,), num_classes=4, rng=rng
        ),
        train_dataset=train,
        test_dataset=test,
    )


def make_store_for(plan, workload):
    model = workload.model_builder(RngStream(plan.seed).get("init"))
    return make_store(
        initial_weights={name: p.data for name, p in model.named_parameters()},
        initial_buffers=model.buffers(),
    )


def make_session(workload, **plan_fields):
    plan = TrainingPlan(batch_size=16, **plan_fields)
    session = build_server(plan, make_store_for(plan, workload), workload)
    for worker_id in plan.worker_ids:
        session.dispatch(ServerEvent(worker_id, "join"))
    return session


def hand_push(session, worker_id, timestamp, **header):
    size = session.store.flat_layouts[0][1][-1].hi
    return session.dispatch(
        ServerEvent(
            worker_id,
            "push",
            {"base_version": 0, "timestamp": timestamp, "loss": 1.0, **header},
            {"flat": {0: np.full(size, 0.125)}},
        )
    )


class ScriptedLink:
    """An in-memory link: never-changing weights, scripted answers to pushes."""

    gradient_buffers = None

    def __init__(self, store, script=()):
        self.store = store
        self.layouts = store.flat_layouts
        self.script = list(script)  # per push: "ok" (default), "abort" or a resume clock
        self.pushed = []  # (seq, copy of the packed gradient)
        self.timeouts = []
        self.readied = []
        self.left = []
        self.reports = []
        self.errors = []

    def open(self):
        return Resume(0, self.store.pull())

    def ready(self, worker):
        self.readied.append(worker)
        return True

    def push(self, header, computation, flat, encoded):
        self.pushed.append((header["seq"], flat[0].copy()))
        return True

    def await_ok(self, timeout):
        self.timeouts.append(timeout)
        answer = self.script.pop(0) if self.script else "ok"
        if answer == "abort":
            return None
        if answer == "ok":
            return self.store.pull()
        return Resume(answer, self.store.pull())

    def leave(self, clock, rejoin_after=None):
        self.left.append(clock)
        return None

    def done(self, report, profile):
        self.reports.append(report)

    def error(self, message):
        self.errors.append(message)


def make_loop(workload, script=(), **loop_fields):
    plan = TrainingPlan(num_workers=2, batch_size=16)
    link = ScriptedLink(make_store_for(plan, workload), script)
    loop = WorkerLoop(
        "worker-1",
        link,
        iterations=4,
        wait_timeout=5.0,
        build=lambda: replica_builder(plan, workload)(1, link.layouts),
        **loop_fields,
    )
    return loop, link


class TestWorkerLoop:
    def test_runs_the_budget_and_reports_once(self, workload):
        loop, link = make_loop(workload, slowdown=0.01)
        report = loop.run()
        assert [seq for seq, _ in link.pushed] == [0, 1, 2, 3]
        assert link.reports == [report] and link.errors == []
        assert report["worker_id"] == "worker-1" and report["iterations"] == 4
        assert report["samples_processed"] == 4 * 16
        # One liveness guard: the plan's timeout plus four times this
        # worker's own compute time, slowdown included.
        assert all(timeout >= 5.0 + 4 * 0.01 for timeout in link.timeouts)

    def test_resume_at_another_clock_rebuilds_and_fast_forwards(self, workload):
        # Three pushes drawn, then the server says "you are at clock 1".
        loop, link = make_loop(workload, script=["ok", "ok", 1])
        report = loop.run()
        assert [seq for seq, _ in link.pushed] == [0, 1, 2, 1, 2, 3]
        first, rebuilt = link.readied
        assert rebuilt is not first and loop.worker is rebuilt
        # The weights never change here, so a gradient is a function of its
        # batches alone: the replayed iterations must redraw exactly the
        # batches 1 .. of an uninterrupted run.
        assert np.array_equal(link.pushed[3][1], link.pushed[1][1])
        assert np.array_equal(link.pushed[4][1], link.pushed[2][1])
        assert not np.array_equal(link.pushed[3][1], link.pushed[0][1])
        # The report spans the rebuild: each of the four iterations once,
        # every push's bytes, the replayed ones too.
        assert report["iterations"] == 4
        assert report["pushed_raw_bytes"] == sum(flat.nbytes for _, flat in link.pushed)

    def test_resume_at_the_clock_already_drawn_keeps_the_replica(self, workload):
        # The OK of push 1 was lost after the server applied it: resume at 2.
        loop, link = make_loop(workload, script=["ok", 2])
        loop.run()
        assert [seq for seq, _ in link.pushed] == [0, 1, 2, 3]
        assert link.readied[0] is link.readied[1]

    def test_abort_during_the_ok_wait_ends_without_a_report(self, workload):
        loop, link = make_loop(workload, script=["ok", "abort"])
        assert loop.run() is None
        assert [seq for seq, _ in link.pushed] == [0, 1]
        assert link.reports == [] and link.errors == []

    def test_injected_crash_leaves_at_its_clock(self, workload):
        from repro.ps.faults import parse_fault_plan

        faults = parse_fault_plan(
            [{"worker": 1, "kind": "crash", "after_clock": 2}], (), ["worker-0", "worker-1"]
        )
        loop, link = make_loop(workload, fault_plan=faults)
        assert loop.run() is None
        assert link.left == [2] and len(link.pushed) == 2 and link.reports == []


class TestStepMachine:
    """``WorkerLoop``'s steps driven by hand, as the simulator drives them."""

    def test_waits_run_from_the_send_to_the_ok_on_the_loop_clock(self, workload):
        now = [0.0]
        plan = TrainingPlan(
            batch_size=16, paradigm="bsp", paradigm_kwargs={}, num_workers=2
        )
        session, replicas = assemble(plan, workload, clock=lambda: now[0])
        loops = {}
        for worker in replicas:
            worker.attach_flat_layout(session.store.flat_layouts)
            worker.load_reply(session.reply(worker.worker_id, welcome=True).pull)
            loops[worker.worker_id] = WorkerLoop(
                worker.worker_id, None, iterations=3, wait_timeout=1.0, worker=worker,
                clock=lambda: now[0],
            )
        session.start()

        def push(worker_id, at):
            now[0] = at
            loop = loops[worker_id]
            step = loop.step()
            header = loop.header(step)
            assert header["timestamp"] == at and header["seq"] == loop.completed
            gradients = {
                "flat": step.flat, "encoded": step.encoded, "buffers": step.computation.buffers
            }
            response = session.dispatch(ServerEvent(worker_id, "push", header, gradients))
            loop.sent()
            return response

        def deliver(worker_id):
            return loops[worker_id].deliver(session.reply(worker_id).pull)

        for blocked_at, round_at in ((1.0, 3.0), (4.0, 7.5)):
            assert "worker-0" not in push("worker-0", blocked_at).to_release
            response = push("worker-1", round_at)
            assert response.to_release == ("worker-1", "worker-0")
            assert deliver("worker-1") == 0.0
            assert deliver("worker-0") == round_at - blocked_at
        push("worker-0", 8.0)  # never answered: it waits until the end
        now[0] = 10.0
        reports = {worker_id: loop.report() for worker_id, loop in loops.items()}
        assert reports["worker-0"]["total_wait_time"] == 2.0 + 3.5 + 2.0
        assert reports["worker-0"]["iterations"] == 3
        assert reports["worker-1"]["total_wait_time"] == 0.0
        assert reports["worker-1"]["iterations"] == 2

    def test_a_resume_discards_the_pending_wait(self, workload):
        now = [0.0]
        # Push 1's OK never comes: the server resumes the worker at clock 1.
        loop, link = make_loop(workload, script=["ok", 1], clock=lambda: now[0])
        answer = link.await_ok

        def await_ok(timeout):
            outcome = answer(timeout)
            now[0] += 100.0 if isinstance(outcome, Resume) else 1.0
            return outcome

        link.await_ok = await_ok
        report = loop.run()
        assert [seq for seq, _ in link.pushed] == [0, 1, 1, 2, 3]
        assert report["total_wait_time"] == 4.0  # four OKs, one second each


class TestServerSession:
    def test_retransmission_advances_the_clock_but_not_the_weights(self, workload):
        session = make_session(workload, paradigm="asp", paradigm_kwargs={}, num_workers=1)
        store, clocks = session.store, session.policy.clock_table
        hand_push(session, "worker-0", 0.0, seq=0)
        applied_once = {name: value.copy() for name, value in store.snapshot().items()}
        assert store.version == 1 and session.watermarks == {"worker-0": 0}

        response = hand_push(session, "worker-0", 0.1, seq=0)
        assert response.to_release == ("worker-0",)
        assert store.version == 1 and clocks.clock("worker-0") == 2
        assert all(
            np.array_equal(applied_once[name], value)
            for name, value in store.snapshot().items()
        )
        assert session.events == [
            {"kind": "duplicate_push", "worker": "worker-0", "seq": 0, "watermark": 0}
        ]

        hand_push(session, "worker-0", 0.2)  # no sequence number: no dedupe
        assert store.version == 2 and session.watermarks == {"worker-0": 0}
        assert len(session.events) == 1

    def test_retransmission_right_after_an_evaluation_does_not_evaluate_again(
        self, workload
    ):
        # The cadence is keyed on the store version: a duplicate advances the
        # policy clock but no weights, so there is nothing new to evaluate.
        session = make_session(
            workload, paradigm="asp", paradigm_kwargs={}, num_workers=2,
            evaluate_every_pushes=2,
        )
        session.evaluate(0.0)
        session.start()
        hand_push(session, "worker-0", 0.0, seq=0)
        hand_push(session, "worker-1", 0.0, seq=0)
        assert len(session.evaluation_times) == 2  # initial + version 2
        hand_push(session, "worker-1", 0.1, seq=0)
        assert session.store.version == 2
        assert len(session.evaluation_times) == 2
        hand_push(session, "worker-0", 0.2, seq=1)
        hand_push(session, "worker-1", 0.2, seq=1)
        assert len(session.evaluation_times) == 3  # version 4

    def test_evaluate_is_a_no_op_for_the_point_it_last_recorded(self, workload):
        ticks = iter([0.0, 1.5, 1.5])  # start, periodic evaluation, finish: a virtual clock
        plan = TrainingPlan(
            batch_size=16, paradigm="asp", paradigm_kwargs={}, num_workers=1,
            evaluate_every_pushes=1,
        )
        session = build_server(
            plan, make_store_for(plan, workload), workload, clock=lambda: next(ticks)
        )
        session.dispatch(ServerEvent("worker-0", "join"))
        session.evaluate(0.0)
        session.start()
        hand_push(session, "worker-0", 1.5)
        result = session.finish()
        # The run ended at the instant of its last periodic evaluation.
        assert result.times.tolist() == [0.0, 1.5] and result.total_time == 1.5

    def test_leave_releases_exactly_who_the_policy_returns(self, workload):
        session = make_session(workload, paradigm="bsp", paradigm_kwargs={}, num_workers=3)
        assert hand_push(session, "worker-0", 0.0).to_release == ()
        assert hand_push(session, "worker-1", 0.0).to_release == ()
        # The round was waiting on worker-2 alone: its departure completes it.
        leave = ServerEvent("worker-2", "departure")
        assert sorted(session.dispatch(leave).to_release) == ["worker-0", "worker-1"]
        assert session.registered == ["worker-0", "worker-1"]
        assert session.dispatch(leave).to_release == ()  # already gone

    def test_finished_workers_leave_the_membership(self, workload):
        session = make_session(workload, paradigm="asp", paradigm_kwargs={}, num_workers=3)
        session.start()
        for worker_id in session.registered:
            hand_push(session, worker_id, 0.0)
            done = ServerEvent(worker_id, "done", {"report": {"worker_id": worker_id}})
            assert session.dispatch(done).to_release == ()
        assert session.registered == []
        assert session.num_workers == 0
        assert session.store.version == 3

    def test_idle_guard_stretches_with_observed_push_intervals(self, workload):
        session = make_session(
            workload, paradigm="asp", paradigm_kwargs={}, num_workers=1, wait_timeout=10.0
        )
        hand_push(session, "worker-0", 1.0)
        assert session.idle_timeout == 10.0
        hand_push(session, "worker-0", 4.0)
        assert session.idle_timeout == 10.0 + 4 * 3.0

    def test_finish_fills_reports_for_workers_that_never_reported(self, workload):
        session = make_session(
            workload, paradigm="asp", paradigm_kwargs={}, num_workers=2,
            evaluate_every_pushes=1,
        )
        session.evaluate(0.0)
        session.start()
        hand_push(session, "worker-1", 0.0)
        report = {
            "worker_id": "worker-1", "iterations": 1, "samples_processed": 16,
            "total_wait_time": 0.5, "total_compute_time": 0.25, "mean_loss": 1.0,
        }
        events = [{"kind": "retry", "worker": "worker-1"}]
        session.dispatch(ServerEvent("worker-1", "done", {"report": report, "events": events}))
        session.dispatch(ServerEvent("worker-9", "join"))  # an elastic extra that dies silently
        result = session.finish(extra=7)
        assert [r.worker_id for r in result.worker_reports] == [
            "worker-0", "worker-1", "worker-9",
        ]
        silent, reported, extra = result.worker_reports
        assert reported.iterations == 1 and reported.total_wait_time == 0.5
        for placeholder in (silent, extra):
            assert placeholder.iterations == 0 and np.isnan(placeholder.mean_loss)
        assert result.events == [{"kind": "retry", "worker": "worker-1"}]
        assert result.server_statistics["extra"] == 7
        assert result.server_statistics["store_version"] == 1
        # Initial, periodic (every push) and final evaluation.
        assert len(result.times) == 3
        assert result.times[0] == 0.0
        assert result.times[-1] == result.total_time


class ScriptedHub:
    """A :class:`ServerLoop` hub that hands over a script of events, then idles."""

    def __init__(self, events):
        self.events = list(events)
        self.oks = []

    def attach(self, loop):
        pass

    def receive(self, ready):
        while self.events:
            yield self.events.pop(0)

    def ok(self, worker_id):
        self.oks.append(worker_id)

    def abort(self, reason):
        pass

    def waiting(self):
        return False

    def statistics(self):
        return {}


class TestServerLoop:
    """Which departures the loop counts as failures, exactly."""

    @staticmethod
    def depart_after(workload, pushes):
        """worker-0 (crash planned at clock 2) dies after ``pushes`` pushes."""
        session = make_session(
            workload, paradigm="asp", paradigm_kwargs={}, num_workers=2,
            faults=({"worker": 0, "kind": "crash", "after_clock": 2},),
        )
        session.start()
        for timestamp in range(pushes):
            hand_push(session, "worker-0", float(timestamp))
        hub = ScriptedHub([
            ("worker-0", "departure", {"reason": "RuntimeError: boom"}, None),
            ("worker-1", "departure", {"reason": None}, None),
        ])
        return ServerLoop(session, hub, poll=0.01).run()

    def test_a_death_before_the_planned_crash_clock_is_a_failure(self, workload):
        result = self.depart_after(workload, pushes=0)
        assert result.errors == ["worker-0: RuntimeError: boom"]

    def test_the_planned_crash_at_its_clock_is_not_a_failure(self, workload):
        result = self.depart_after(workload, pushes=2)
        assert result.errors == []
        assert {"kind": "crash", "worker": "worker-0", "clock": 2,
                "reason": "RuntimeError: boom"} in result.events


class TestReply:
    """``ServerSession.reply``, the one OK builder, on every store and log."""

    @staticmethod
    def session(workload, num_shards, logged):
        """Two joined, welcomed workers; worker-1 then worker-0 push from
        version 0, so worker-0's OK spans a foreign push and its own."""
        plan = TrainingPlan(
            batch_size=16, paradigm="asp", paradigm_kwargs={}, num_workers=2
        )
        model = workload.model_builder(RngStream(plan.seed).get("init"))
        store = make_store(
            {name: p.data for name, p in model.named_parameters()}, num_shards=num_shards
        )
        session = build_server(plan, store)
        if logged:
            session.update_log = UpdateLog(store.version, store.nbytes)
        for worker_id in plan.worker_ids:
            session.dispatch(ServerEvent(worker_id, "join"))
            session.reply(worker_id, welcome=True).pull.release()
        codec, rng = make_codec("topk:0.1"), np.random.default_rng(0)
        pushed = {}
        for worker_id in ("worker-1", "worker-0"):
            pushed[worker_id] = tuple(
                codec.encode(shard, rng.standard_normal(segments[-1].hi))
                for shard, segments in store.flat_layouts
            )
            header = {"base_version": 0, "timestamp": 0.0, "seq": 0}
            session.dispatch(ServerEvent(worker_id, "push", header, {"encoded": pushed[worker_id]}))
        return session, store, pushed

    @pytest.mark.parametrize("welcome", [True, False], ids=["welcome", "ok"])
    @pytest.mark.parametrize("logged", [True, False], ids=["log", "no-log"])
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_kind_counts_and_bytes(self, workload, num_shards, logged, welcome):
        session, store, pushed = self.session(workload, num_shards, logged)
        before = Counter(session.pull_replies)
        ok = session.reply("worker-0", welcome=welcome)
        counted = dict(Counter(session.pull_replies) - before)
        assert ok.version == store.version == 2
        if not welcome and logged:
            # worker-1's push travels; worker-0's own is named, not echoed.
            assert ok.kind == "log" and ok.pull is None
            assert [entry.version for entry in ok.entries] == [1, 2]
            foreign = sum(frame.nbytes for frame in pushed["worker-1"])
            assert counted == {"log": 1, "log_bytes": foreign}
            return
        if not welcome:
            # The delta base is worker-0's last push base; both pushes moved
            # every shard, so the delta is the whole model on any shard count.
            expected = store.pull(0)
            assert ok.kind == "delta" and ok.reason is None
            assert ok.pull.wire_nbytes == expected.wire_nbytes == store.nbytes
            for got, want in ((ok.pull.weights, expected.weights), (ok.pull.buffers, expected.buffers)):
                assert list(got) == list(want)
                assert all(got[name].tobytes() == want[name].tobytes() for name in want)
            assert counted == {"delta": 1, "delta_bytes": expected.wire_nbytes}
            ok.pull.release()
            expected.release()
            return
        assert (ok.kind, ok.reason) == ("dense", "welcome")
        assert ok.mirrored == (welcome and logged)
        dense_bytes = store.nbytes
        if ok.mirrored:  # the optimizer state a mirror is built from
            velocity = session.optimizer.state_dict()["velocity"]
            assert ok.velocity.size == sum(value.size for value in velocity.values())
            dense_bytes += ok.velocity.nbytes
        else:
            assert ok.velocity is None
        assert counted == {"dense": 1, "dense_bytes": dense_bytes}
        expected = store.pull()
        assert [p.buffer.tobytes() for p in ok.pull.flat_weights] == [
            p.buffer.tobytes() for p in expected.flat_weights
        ]
        ok.pull.release()
        expected.release()

    def test_an_ok_before_any_push_is_dense(self, workload):
        session, store, _ = self.session(workload, num_shards=4, logged=False)
        session.dispatch(ServerEvent("worker-9", "join"))
        ok = session.reply("worker-9")
        assert (ok.kind, ok.reason) == ("dense", "no base")
        ok.pull.release()


#: Per-worker ``pulled_bytes`` of sharded runs (4 shards).  The tiny MLP
#: (39,056 weight bytes) was recorded before ``ServerSession.reply`` existed:
#: a dense push moves every shard, so a delta OK carries the whole model and
#: the first two runs pull exactly (OKs + 1) dense models; a buffered
#: aggregator leaves a staged pusher at the tip, and its delta is empty.
#: The tiny resnet110 adds BatchNorm buffers: a staged push still writes
#: them, so its OK at the tip resends only the buffers of their shards — the
#: one partial delta, which a single stamp per shard would overcount.  The
#: spy sees only a server in the test's own process: the simulator's.
DELTA_RUNS = {
    "simulated-3w-dssp": ("mlp", "simulated", 3, None, [312448, 312448, 273392]),
    "simulated-1w": ("mlp", "simulated", 1, None, [820176]),
    "simulated-3w-trimmed-mean": ("mlp", "simulated", 3, "trimmed_mean:1", [781120] * 3),
    "resnet110-simulated-3w-trimmed-mean": (
        "resnet110", "simulated", 3, "trimmed_mean:1", [779040, 862464, 779040]
    ),
}


@pytest.mark.parametrize("run", DELTA_RUNS)
def test_sharded_runs_get_delta_oks(monkeypatch, run):
    from repro.api import ClusterConfig, ExperimentSpec, run_experiment

    workload, backend, num_workers, aggregation, pinned = DELTA_RUNS[run]
    kinds = Counter()
    reply = ServerSession.reply

    def spy(self, worker_id, *, welcome=False):
        ok = reply(self, worker_id, welcome=welcome)
        kinds[ok.reason if welcome else ok.kind] += 1
        return ok

    monkeypatch.setattr(ServerSession, "reply", spy)
    spec = ExperimentSpec(
        workload=workload, scale="tiny", cluster=ClusterConfig(num_workers=num_workers),
        paradigm="dssp", paradigm_kwargs={"s_lower": 1, "s_upper": 4}, epochs=1.0,
        batch_size=16, num_shards=4, aggregation=aggregation, seed=0,
    )
    result = run_experiment(spec, backend)
    assert result.errors == []
    # Every OK is a delta from the worker's last push base; only joins are dense.
    assert set(kinds) == {"welcome", "delta"} and kinds["welcome"] == num_workers
    pulled = [report.pulled_bytes for report in result.worker_reports]
    assert pulled == pinned
    dense = [
        (report.iterations + 1) * result.server_statistics["store_nbytes"]
        for report in result.worker_reports
    ]
    assert all(got <= bound for got, bound in zip(pulled, dense))
    if aggregation is not None:
        assert sum(pulled) < sum(dense)


PLAN_CLASSES = {
    "simulated": TrainingPlan,
    "process": lambda **fields: ProcessTrainingPlan(
        workload="mlp", scale_fields=dataclasses.asdict(TINY), **fields
    ),
    "tcp": lambda **fields: TcpTrainingPlan(
        workload="mlp", scale_fields=dataclasses.asdict(TINY), **fields
    ),
}


@pytest.mark.parametrize("make_plan", PLAN_CLASSES.values(), ids=PLAN_CLASSES.keys())
@pytest.mark.parametrize(
    "fields,message",
    [
        ({"batch_size": 0}, "batch_size must be positive"),
        ({"slowdowns": {"worker-0": -0.5}}, "slowdowns must be non-negative"),
        ({"evaluate_every_pushes": -1}, "evaluate_every_pushes must be non-negative"),
        ({"wait_timeout": 0.0}, "wait_timeout must be positive"),
    ],
)
def test_every_plan_rejects_the_same_bad_values(make_plan, fields, message):
    assert make_plan().num_workers == 4  # the defaults themselves are fine
    with pytest.raises(ValueError, match=message):
        make_plan(**fields)


NET_FAULT_EXAMPLE = {
    "delay": "delay:5", "drop": "drop", "partition": "partition:2,1", "throttle": "throttle:1000",
}
NET_FAULT_SUPPORT = {
    "simulated": (PLAN_CLASSES["simulated"], {}, ()),
    "process": (PLAN_CLASSES["process"], {}, ()),
    "tcp": (PLAN_CLASSES["tcp"], {}, NET_FAULT_KINDS),
}


@pytest.mark.parametrize(
    "make_plan,fields,supported", NET_FAULT_SUPPORT.values(), ids=NET_FAULT_SUPPORT.keys()
)
@pytest.mark.parametrize("kind", NET_FAULT_KINDS)
def test_each_plan_accepts_exactly_the_net_faults_its_links_inject(
    make_plan, fields, supported, kind
):
    net_faults = ({"spec": NET_FAULT_EXAMPLE[kind]},)
    if kind in supported:
        assert make_plan(net_faults=net_faults, **fields).fault_plan.net_kinds() == (kind,)
    else:
        with pytest.raises(ValueError, match=rf"net fault kinds \['{kind}'\] are not supported"):
            make_plan(net_faults=net_faults, **fields)


class TestOneLivenessGuard:
    @pytest.mark.parametrize(
        "backend",
        [
            pytest.param(
                "process",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the server's idle guard ignores the plan's declared "
                    "slowdowns and aborts before the first push (CHANGES.md FOUND)",
                ),
            ),
            "tcp",
        ],
    )
    def test_run_survives_slowdowns_beyond_its_wait_timeout(self, backend):
        # Every BSP round the peers are legitimately quiet for a whole
        # slowdown — five times the configured timeout.  The guard adds four
        # times the waiting worker's own (equally slowed) compute time.
        from repro.ps.process_runtime import ProcessTrainer
        from repro.ps.tcp_runtime import TcpTrainer

        trainer = {"process": ProcessTrainer, "tcp": TcpTrainer}[backend]
        config = PLAN_CLASSES[backend](
            paradigm="bsp",
            paradigm_kwargs={},
            num_workers=2,
            iterations_per_worker=3,
            batch_size=16,
            slowdowns={"worker-0": 0.25, "worker-1": 0.25},
            wait_timeout=0.05,
        )
        result = trainer(config).run()
        assert result.errors == []
        assert result.server_statistics["store_version"] == 6

    @pytest.mark.parametrize(
        "backend,trainer", [("process", "ProcessTrainer"), ("tcp", "TcpTrainer")]
    )
    def test_the_backend_stretches_the_guard_over_declared_slowdowns(
        self, monkeypatch, backend, trainer
    ):
        from repro.api import ClusterConfig, ExperimentSpec, backends, get_backend

        captured = {}

        def capture(plan, **kwargs):
            captured["config"] = plan
            raise KeyboardInterrupt  # stop before any training happens

        monkeypatch.setattr(backends, trainer, capture)
        spec = ExperimentSpec(
            name="guard",
            workload="mlp",
            scale="tiny",
            cluster=ClusterConfig(num_workers=2, gpus_per_worker=1),
            slowdowns={"worker-1": 30.0},
        )
        with pytest.raises(KeyboardInterrupt):
            get_backend(backend).run(spec)
        assert captured["config"].wait_timeout == 4 * 30.0 + 60.0


@pytest.mark.parametrize("num_workers", [1, 2, 3])
def test_each_replica_copies_only_its_partition_and_draws_the_same_batches(
    workload, num_workers
):
    """``build(index)`` reads one partition's rows of the workload's own
    arrays, copying nothing; the batches are what the all-partitions recipe
    (``partition_dataset`` up front) drew, byte for byte."""
    plan = TrainingPlan(num_workers=num_workers, batch_size=16, seed=3)
    build = replica_builder(plan, workload)
    streams = RngStream(plan.seed)
    partitions = partition_dataset(
        workload.train_dataset, num_workers, rng=streams.get("partition")
    )
    rows = partition_indices(
        len(workload.train_dataset), num_workers, rng=RngStream(plan.seed).get("partition")
    )
    for index, partition in enumerate(partitions):
        loader = build(index).loader
        reference = MiniBatchLoader(
            partition, batch_size=16, rng=streams.get(f"loader-worker-{index}")
        )
        assert loader.dataset is workload.train_dataset
        assert np.array_equal(loader.rows, rows[index])
        assert workload.train_dataset.inputs[loader.rows].tobytes() == partition.inputs.tobytes()
        batches_per_epoch = -(-len(partition) // 16)
        for _ in range(2 * batches_per_epoch + 1):
            inputs, labels = loader.next_batch()
            want_inputs, want_labels = reference.next_batch()
            assert inputs.tobytes() == want_inputs.tobytes()
            assert labels.tobytes() == want_labels.tobytes()
