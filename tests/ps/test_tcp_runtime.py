"""Integration tests for the socket runtime (repro.ps.tcp_runtime).

Real sockets, real processes, tiny plans.  The membership-race tests run
the server in a thread and speak the wire protocol by hand so the races
(duplicate join, join after abort) are deterministic rather than
timing-dependent; the restart test exercises the full SIGTERM →
checkpoint → relaunch → reconnect cycle with OS processes and asserts
bit-for-bit resumption.
"""

import dataclasses
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.experiments.config import TINY
from repro.ps.tcp_runtime import (
    TcpServer,
    TcpTrainer,
    TcpTrainingPlan,
    _serve_entry,
    _worker_entry,
)
from repro.ps.transport import connect_tcp


def tiny_plan(**overrides) -> TcpTrainingPlan:
    base = dict(
        workload="mlp",
        scale_fields=dataclasses.asdict(TINY),
        paradigm="dssp",
        paradigm_kwargs={"s_lower": 1, "s_upper": 4},
        num_workers=2,
        iterations_per_worker=4,
        batch_size=16,
        evaluate_every_pushes=0,
        seed=0,
        wait_timeout=60.0,
    )
    base.update(overrides)
    return TcpTrainingPlan(**base)


class ServerThread:
    """Run a TcpServer on an ephemeral port in a background thread."""

    def __init__(self, plan: TcpTrainingPlan):
        self.ready = threading.Event()
        self.address = None
        self.result = None

        def run():
            def on_ready(address):
                self.address = address
                self.ready.set()

            self.result = TcpServer(plan, ready_callback=on_ready).serve()

        self.thread = threading.Thread(target=run, daemon=True)

    def __enter__(self):
        self.thread.start()
        assert self.ready.wait(30.0), "server never bound"
        return self

    def __exit__(self, *exc):
        self.thread.join(timeout=60.0)
        assert not self.thread.is_alive(), "server thread leaked"


class TestPlanValidation:
    def test_unknown_net_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="meteor"):
            tiny_plan(net_faults=({"spec": "meteor:1"},))

    def test_net_fault_target_must_be_in_roster(self):
        with pytest.raises(ValueError, match="out of range"):
            tiny_plan(net_faults=({"spec": "drop", "worker": 9},))

    def test_heartbeat_timeout_must_exceed_twice_interval(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            tiny_plan(heartbeat_interval=1.0, heartbeat_timeout=2.0)

    def test_malformed_address_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            tiny_plan(address="localhost")

    def test_unknown_crash_worker_rejected(self):
        with pytest.raises(ValueError, match="nonexistent workers"):
            tiny_plan(crash_after_push={"worker-9": 1})

    def test_bad_codec_rejected(self):
        with pytest.raises(ValueError):
            tiny_plan(compression="gzip")


class TestEndToEnd:
    def test_two_worker_run_reports_everything(self):
        result = TcpTrainer(tiny_plan(evaluate_every_pushes=4)).run()
        assert result.errors == []
        assert result.total_time > 0
        assert len(result.worker_reports) == 2
        for report in result.worker_reports:
            assert report.iterations == 4
            assert report.samples_processed == 4 * 16
            assert report.pushed_wire_bytes > 0
        assert result.server_statistics["store_version"] == 8
        assert result.server_statistics["paradigm"] == "dssp"
        assert result.server_statistics["tcp_bytes_sent"] > 0
        assert result.server_statistics["tcp_bytes_received"] > 0
        # Curve: initial model at t=0, periodic evals, final model at wall.
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(result.total_time)
        assert len(result.times) >= 3

    def test_codec_run_shrinks_wire_bytes(self):
        dense = TcpTrainer(tiny_plan()).run()
        coded = TcpTrainer(tiny_plan(compression="topk:0.25")).run()
        assert coded.errors == []
        assert coded.server_statistics["store_version"] == 8
        dense_pushed = sum(r.pushed_wire_bytes for r in dense.worker_reports)
        coded_pushed = sum(r.pushed_wire_bytes for r in coded.worker_reports)
        assert 0 < coded_pushed < dense_pushed

    @pytest.mark.parametrize(
        "compression, pushed, received",
        [("none", 156224, 315048), ("topk:0.01", 2352, 7472)],
    )
    def test_wire_byte_totals_match_the_staging_transport(
        self, compression, pushed, received
    ):
        # Totals recorded with the bytearray-staging TcpConnection this
        # transport replaced: same traffic, same bytes.  Heartbeats are
        # pushed past the end of the run; what is left to vary in
        # tcp_bytes_received is the digit count of the floats (timestamp,
        # loss, wait times) in the push/done envelopes, a few 8-byte pads.
        plan = tiny_plan(
            compression=compression, heartbeat_interval=20.0, heartbeat_timeout=60.0
        )
        result = TcpTrainer(plan).run()
        assert result.errors == []
        statistics = result.server_statistics
        pulled = [report.pulled_bytes for report in result.worker_reports]
        for report in result.worker_reports:
            assert report.pushed_wire_bytes == pushed
        if compression == "none":
            assert pulled == [195280, 195280]
            assert statistics["tcp_bytes_sent"] == 392080
            # The two welcomes are dense; every OK sends the one shard,
            # which moved since the base: the same 39,056 B, as a delta.
            assert statistics["pull_replies"] == {
                "log": 0, "dense": 2, "log_bytes": 0, "dense_bytes": 78112,
                "delta": 8, "delta_bytes": 312448,
            }
        else:
            # Update-log pulls: the dense welcome (39,056 B) plus one 588 B
            # frame per push of the *other* worker up to this worker's last
            # OK (its own pushes are named, not echoed) — how many of those
            # 4 depends on the interleaving, but the last OK of the run
            # carries the log up to version 8, so all of them.
            foreign = [(nbytes - 39056) / 588 for nbytes in pulled]
            assert all(v in (0, 1, 2, 3, 4) for v in foreign) and max(foreign) == 4
            replies = statistics["pull_replies"]
            assert (replies["log"], replies["dense"]) == (8, 2)
            assert replies["log_bytes"] + replies["dense_bytes"] == sum(pulled)
            # The socket counter falls with it: envelopes are all that is left.
            assert 0 < statistics["tcp_bytes_sent"] - sum(pulled) < 4096
            assert not [e for e in result.events if e["kind"] == "dense_pull"]
        assert abs(statistics["tcp_bytes_received"] - received) <= 64


class TestElasticMembership:
    def test_worker_death_mid_run_detected_and_survived(self):
        # worker-1 dies right after its first push lands (EOF mid-protocol);
        # the heartbeat/EOF path deregisters it, the SSP bound is recomputed
        # over the survivor, and worker-0 finishes its full budget.
        result = TcpTrainer(
            tiny_plan(
                paradigm="ssp",
                paradigm_kwargs={"staleness": 2},
                crash_after_push={"worker-1": 1},
            )
        ).run()
        assert any("worker-1" in error for error in result.errors)
        by_id = {report.worker_id: report for report in result.worker_reports}
        assert by_id["worker-0"].iterations == 4
        # 4 survivor pushes plus however many worker-1 landed before dying.
        assert result.server_statistics["store_version"] >= 5

    def test_membership_flapping_leaks_nothing(self):
        # A worker repeatedly joining and leaving mid-run: every cycle must
        # deregister it from the clock table, re-bound the policy over the
        # survivor (whose pushes keep being released), and leak neither
        # copy-on-write leases nor clock-table entries.
        from repro.ps.tcp_runtime import TcpServer, _dense_frame

        plan = tiny_plan(
            paradigm="ssp",
            paradigm_kwargs={"staleness": 2},
            iterations_per_worker=64,
            wait_timeout=30.0,
        )
        ready = threading.Event()
        box = {}

        def run_server():
            def on_ready(address):
                box["address"] = address
                ready.set()

            box["server"] = server = TcpServer(plan, ready_callback=on_ready)
            box["result"] = server.serve()

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert ready.wait(30.0)

        def wait_until(predicate, timeout=10.0):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if predicate():
                    return True
                time.sleep(0.01)
            return False

        def join(worker_id):
            conn = connect_tcp(box["address"], timeout=10.0)
            conn.send({"type": "join", "worker": worker_id, "codec": None})
            header, _ = conn.recv(timeout=10.0)
            assert header["type"] == "welcome"
            return conn, header

        survivor, header = join("worker-0")
        flapper, _ = join("worker-1")
        header, _ = survivor.recv(timeout=10.0)  # both present: start
        assert header["type"] == "start"
        flapper.recv(timeout=10.0)

        server = box["server"]
        store, policy = server.session.server.store, server.session.server.policy
        records = policy.clock_table._records
        size = store.flat_layouts[0][1][-1].hi
        pushes = 0

        def push_ok():
            nonlocal pushes
            survivor.send(
                {
                    "type": "push",
                    "worker": "worker-0",
                    "base_version": 0,
                    "timestamp": 0.0,
                    "loss": 1.0,
                    "samples": 16,
                    "codec": None,
                },
                (_dense_frame(0, np.zeros(size)),),
            )
            while True:
                reply, _ = survivor.recv(timeout=10.0)
                if reply["type"] == "ok":
                    break
            pushes += 1

        for cycle in range(3):
            flapper.close()
            assert wait_until(lambda: "worker-1" not in records)
            assert set(records) == {"worker-0"}
            assert server.session.server.worker_ids == ["worker-0"]
            # The SSP bound re-computed over the survivor: its pushes keep
            # being released even far past the flapper's last clock.
            push_ok()
            push_ok()
            # Every pull lease (join welcomes, push OKs) must drain; the
            # release runs just after the reply hits the wire, hence the
            # wait.  Growth here would be a copy-on-write leak per cycle.
            (shard,) = store._shards
            assert wait_until(lambda: shard._leases == 0), (
                f"leaked lease on cycle {cycle}: {shard._leases}"
            )
            flapper, welcome = join("worker-1")
            assert welcome["started"] is True
            # Rejoined at the survivor's clock, not at zero.
            assert wait_until(lambda: "worker-1" in records)
            assert records["worker-1"].clock == pushes

        flapper.close()
        assert wait_until(lambda: set(records) == {"worker-0"})
        survivor.close()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        result = box["result"]
        assert result.server_statistics["store_version"] == pushes

    @pytest.mark.parametrize("kind", ["error", "done"])
    def test_a_connection_speaks_only_for_its_own_worker(self, kind):
        # worker-0's socket sends an error or a done whose header names
        # worker-1.  The server must act for the socket's owner: worker-0
        # leaves, and worker-1 stays registered and keeps getting OKs.
        from repro.ps.tcp_runtime import TcpServer, _dense_frame

        plan = tiny_plan(
            paradigm="ssp",
            paradigm_kwargs={"staleness": 2},
            iterations_per_worker=64,
            wait_timeout=30.0,
        )
        ready = threading.Event()
        box = {}

        def run_server():
            def on_ready(address):
                box["address"] = address
                ready.set()

            box["server"] = server = TcpServer(plan, ready_callback=on_ready)
            box["result"] = server.serve()

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert ready.wait(30.0)

        def wait_until(predicate, timeout=10.0):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if predicate():
                    return True
                time.sleep(0.01)
            return False

        def join(worker_id):
            conn = connect_tcp(box["address"], timeout=10.0)
            conn.send({"type": "join", "worker": worker_id, "codec": None})
            header, _ = conn.recv(timeout=10.0)
            assert header["type"] == "welcome"
            return conn

        spoofer = join("worker-0")
        victim = join("worker-1")
        for conn in (spoofer, victim):
            header, _ = conn.recv(timeout=10.0)
            assert header["type"] == "start"

        server = box["server"]
        records = server.session.server.policy.clock_table._records
        size = server.session.server.store.flat_layouts[0][1][-1].hi

        def report(worker_id):
            return {
                "worker_id": worker_id,
                "iterations": 0,
                "samples_processed": 0,
                "total_wait_time": 0.0,
                "total_compute_time": 0.0,
                "mean_loss": "nan",
            }

        spoof = {"type": kind, "worker": "worker-1"}
        if kind == "error":
            spoof["message"] = "spoofed"
        else:
            spoof.update(report=report("worker-0"), events=[])
        spoofer.send(spoof)
        assert wait_until(lambda: "worker-0" not in records), sorted(records)
        assert set(records) == {"worker-1"}
        assert server.session.server.worker_ids == ["worker-1"]

        for _ in range(3):
            victim.send(
                {
                    "type": "push",
                    "worker": "worker-1",
                    "base_version": 0,
                    "timestamp": 0.0,
                    "loss": 1.0,
                    "samples": 16,
                    "codec": None,
                },
                (_dense_frame(0, np.zeros(size)),),
            )
            while True:
                reply, _ = victim.recv(timeout=10.0)
                if reply["type"] == "ok":
                    break
        victim.send({"type": "done", "worker": "worker-1", "report": report("worker-1")})
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        spoofer.close()
        victim.close()
        result = box["result"]
        assert result.errors == (["worker-0: spoofed"] if kind == "error" else [])
        assert result.server_statistics["store_version"] == 3
        finished = {"worker-0", "worker-1"} if kind == "done" else {"worker-1"}
        assert set(server.session.reports) == finished

    def test_duplicate_join_then_abort_then_late_join(self):
        # Protocol-level race coverage, deterministic because we are the
        # workers: (1) a second 'worker-0' is rejected while the first is
        # alive; (2) an expected worker dying before the start barrier
        # aborts the run; (3) a join racing the abort gets an explicit
        # reject during the linger window, not a connection refused.
        plan = tiny_plan(num_workers=2, wait_timeout=10.0)
        with ServerThread(plan) as server:
            first = connect_tcp(server.address, timeout=10.0)
            first.send({"type": "join", "worker": "worker-0", "codec": None})
            header, frames = first.recv(timeout=10.0)
            assert header["type"] == "welcome"
            assert header["clock"] == 0 and header["started"] is False
            assert len(frames) >= 1  # initial weights ride along

            duplicate = connect_tcp(server.address, timeout=10.0)
            duplicate.send({"type": "join", "worker": "worker-0", "codec": None})
            header, _ = duplicate.recv(timeout=10.0)
            assert header["type"] == "reject"
            assert "duplicate" in header["reason"]
            duplicate.close()

            # EOF from an expected worker before the start barrier: abort.
            first.close()
            deadline = time.monotonic() + 5.0
            late = None
            while time.monotonic() < deadline:
                late = connect_tcp(server.address, timeout=5.0)
                late.send({"type": "join", "worker": "worker-7", "codec": None})
                header, _ = late.recv(timeout=10.0)
                if header["type"] == "reject" and "abort" in header["reason"]:
                    break
                late.close()  # raced ahead of the EOF; try again
            assert header["type"] == "reject"
            assert "abort" in header["reason"]
            late.close()
        assert server.result is not None
        assert any("died before start" in error for error in server.result.errors)


class TestFaultInjection:
    def test_injected_crash_rejoins_through_elastic_membership(self):
        # worker-1's fault plan drops its socket after 2 pushes and rejoins
        # one heartbeat period later; the slowed-down survivor keeps the run
        # alive long enough that the rejoin lands mid-run.  Both the crash
        # and the rejoin must come out as structured events, and the
        # rejoined worker must still complete its full push budget.
        result = TcpTrainer(
            tiny_plan(
                paradigm="ssp",
                paradigm_kwargs={"staleness": 2},
                iterations_per_worker=8,
                heartbeat_interval=0.2,
                heartbeat_timeout=1.0,
                slowdowns={"worker-0": 0.2},
                faults=(
                    {
                        "worker": 1,
                        "kind": "crash",
                        "after_clock": 2,
                        "rejoin_after": 1,
                    },
                ),
            )
        ).run()
        kinds = [event["kind"] for event in result.events]
        assert "crash" in kinds
        assert "rejoin" in kinds
        crash = next(e for e in result.events if e["kind"] == "crash")
        assert crash["worker"] == "worker-1"
        by_id = {report.worker_id: report for report in result.worker_reports}
        assert by_id["worker-0"].iterations == 8
        # The rejoiner resumes at the cluster's slowest clock, which may be
        # past its own crash point — it completes the *remaining* budget.
        assert 4 <= by_id["worker-1"].iterations <= 8
        assert by_id["worker-1"].samples_processed == by_id["worker-1"].iterations * 16


class TestGracefulRestart:
    def _spawn_server(self, ctx, plan):
        ready_recv, ready_send = ctx.Pipe(duplex=False)
        result_recv, result_send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_serve_entry, args=(plan, ready_send, result_send), daemon=True
        )
        process.start()
        ready_send.close()
        result_send.close()
        assert ready_recv.poll(30.0), "server never reported its address"
        address = ready_recv.recv()
        ready_recv.close()
        return process, address, result_recv

    def _run_with_a_sigterm_restart(self, tmp_path, **fields):
        """An uninterrupted reference run, then the same plan with the server
        SIGTERMed and relaunched mid-run; the relaunched server's result."""
        ctx = multiprocessing.get_context("spawn" if os.name == "nt" else "fork")
        base = dict(
            paradigm="bsp",
            paradigm_kwargs={},
            num_workers=1,
            iterations_per_worker=6,
            # Slow enough that the SIGTERM below lands mid-run: the whole
            # budget takes ~2.4s and the signal arrives at ~1s.
            slowdowns={"worker-0": 0.4},
            checkpoint_every_pushes=1,
            wait_timeout=30.0,
            **fields,
        )

        reference = tiny_plan(
            checkpoint_path=str(tmp_path / "reference.npz"), **base
        )
        result = TcpTrainer(reference, context=ctx).run()
        assert result.errors == []

        interrupted = tiny_plan(
            checkpoint_path=str(tmp_path / "interrupted.npz"), **base
        )
        server, address, _ = self._spawn_server(ctx, interrupted)
        worker = ctx.Process(
            target=_worker_entry, args=(interrupted, 0, address), daemon=True
        )
        worker.start()
        time.sleep(1.0)  # a few pushes land, then the server dies
        os.kill(server.pid, signal.SIGTERM)
        server.join(timeout=30.0)
        assert server.exitcode == 0

        relaunched = dataclasses.replace(interrupted, address=address)
        server2, address2, result_recv = self._spawn_server(ctx, relaunched)
        assert address2 == address  # SO_REUSEADDR: same port, worker finds it
        assert result_recv.poll(60.0)
        kind, result = result_recv.recv()
        server2.join(timeout=60.0)
        worker.join(timeout=60.0)
        assert server2.exitcode == 0 and worker.exitcode == 0

        with np.load(tmp_path / "reference.npz") as ref, np.load(
            tmp_path / "interrupted.npz"
        ) as got:
            ref_arrays = {k: ref[k] for k in ref.files if "::" in k}
            got_arrays = {k: got[k] for k in got.files if "::" in k}
            assert set(ref_arrays) == set(got_arrays)
            for key, value in ref_arrays.items():
                assert np.array_equal(value, got_arrays[key]), key
        assert kind == "result"
        return result

    def test_sigterm_restart_resumes_bit_for_bit(self, tmp_path):
        # SIGTERM mid-run → checkpoint (weights, momentum, worker clocks) →
        # new server on the same port → worker reconnects with backoff and
        # replays deterministically.  On the 'none' codec the final model
        # must be byte-identical to an uninterrupted run of the same plan.
        result = self._run_with_a_sigterm_restart(tmp_path)
        # The record counts every incarnation's pushes, not the last one's.
        pushes = result.server_statistics["pushes"]
        assert pushes == result.staleness.count == result.total_updates == 6

    def test_sigterm_restart_re_mirrors_a_codec_worker(self, tmp_path):
        # With topk the worker follows the server through update-log pulls.
        # The rejoin's welcome ships the checkpointed momentum next to the
        # weights, so the very first OK after it is a log reply again — and
        # the run still ends byte-identical to the uninterrupted one.
        result = self._run_with_a_sigterm_restart(tmp_path, compression="topk:0.01")
        assert result.errors == []
        replies = result.server_statistics["pull_replies"]
        # Both incarnations count: the first join and the rejoin are the
        # dense replies, every push's OK is a log reply.
        assert replies["dense"] == 2 and replies["log"] >= 6
        # The first welcome: 39,056 B of weights; the rejoin's: those and as
        # many of momentum.
        assert replies["dense_bytes"] == 39056 + 2 * 39056
        # One worker: every log entry is its own push, named and not echoed.
        assert replies["log_bytes"] == 0
        kinds = [event["kind"] for event in result.events]
        assert "server_restart" in kinds and "dense_pull" not in kinds
        assert result.server_statistics["store_version"] == 6
        # The rebuilt replica counts from the rejoin: its pulls are these,
        # less the first welcome.
        (report,) = result.worker_reports
        assert report.pulled_bytes == replies["dense_bytes"] - 39056 + replies["log_bytes"]


def _assert_checkpoints_match(reference_path, chaos_path):
    """Final model weights in two checkpoints must be byte-identical."""
    with np.load(reference_path) as ref, np.load(chaos_path) as got:
        ref_arrays = {k: ref[k] for k in ref.files if "::" in k}
        got_arrays = {k: got[k] for k in got.files if "::" in k}
        assert set(ref_arrays) == set(got_arrays)
        for key, value in ref_arrays.items():
            assert np.array_equal(value, got_arrays[key]), key


class TestExactlyOnce:
    @staticmethod
    def _seed_with_phase(phase: str) -> int:
        # The drop phase (torn mid-frame vs delivered-then-torn) is drawn
        # from the worker's chaos stream, so probing seeds pins the test to
        # a specific phase without touching the production draw order.
        from repro.ps.faults import parse_fault_plan
        from repro.ps.netfaults import NetFaultSchedule

        plan = parse_fault_plan((), [{"spec": "drop"}], ["worker-0"])
        for seed in range(256):
            if NetFaultSchedule(plan, "worker-0", seed).next_push(0).drop == phase:
                return seed
        pytest.fail(f"no seed under 256 yields a {phase!r} drop")

    @pytest.mark.parametrize("phase", ["torn", "sent"])
    def test_dropped_push_replays_bit_for_bit(self, tmp_path, phase):
        # drop:1.0 tears worker-0's first push.  'torn' loses the push
        # (recompute + resend); 'sent' applies it but loses the OK (the
        # watermark hands back clock k+1 so nothing is applied twice).
        # Either way the final model must be byte-identical to a clean run.
        seed = self._seed_with_phase(phase)
        base = dict(
            paradigm="bsp",
            paradigm_kwargs={},
            num_workers=1,
            iterations_per_worker=5,
            seed=seed,
            checkpoint_every_pushes=1,
            wait_timeout=30.0,
        )
        clean = tiny_plan(checkpoint_path=str(tmp_path / "clean.npz"), **base)
        clean_result = TcpTrainer(clean).run()
        assert clean_result.errors == []
        assert clean_result.events == []  # chaos-free runs stay event-free

        chaos = tiny_plan(
            checkpoint_path=str(tmp_path / "chaos.npz"),
            net_faults=({"spec": "drop"},),
            **base,
        )
        chaos_result = TcpTrainer(chaos).run()
        # The torn connection is injected chaos, not a failure.
        assert chaos_result.errors == []
        kinds = [event["kind"] for event in chaos_result.events]
        assert "net_drop" in kinds
        assert "connection_lost" in kinds
        assert "reconnect" in kinds
        report = chaos_result.worker_reports[0]
        assert report.samples_processed == report.iterations * 16
        assert chaos_result.server_statistics["store_version"] == 5
        _assert_checkpoints_match(tmp_path / "clean.npz", tmp_path / "chaos.npz")

    def test_retransmitted_push_applied_exactly_once(self):
        # Protocol-level determinism: we are the worker, so the retransmit
        # race (server applied seq=0 but the OK never arrived) is exact.
        # The second seq=0 push must ack without touching the weights.
        from repro.ps.tcp_runtime import _dense_frame

        plan = tiny_plan(
            paradigm="ssp",
            paradigm_kwargs={"staleness": 2},
            num_workers=1,
            iterations_per_worker=8,
            wait_timeout=10.0,
        )
        ready = threading.Event()
        box = {}

        def run_server():
            def on_ready(address):
                box["address"] = address
                ready.set()

            box["server"] = server = TcpServer(plan, ready_callback=on_ready)
            box["result"] = server.serve()

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert ready.wait(30.0)

        conn = connect_tcp(box["address"], timeout=10.0)
        conn.send({"type": "join", "worker": "worker-0", "codec": None})
        header, _ = conn.recv(timeout=10.0)
        assert header["type"] == "welcome"
        if not header["started"]:
            header, _ = conn.recv(timeout=10.0)
            assert header["type"] == "start"

        server = box["server"]
        size = server.session.server.store.flat_layouts[0][1][-1].hi

        def push(seq):
            conn.send(
                {
                    "type": "push",
                    "worker": "worker-0",
                    "base_version": 0,
                    "timestamp": 0.0,
                    "loss": 1.0,
                    "samples": 16,
                    "codec": None,
                    "seq": seq,
                },
                (_dense_frame(0, np.full(size, 0.125)),),
            )
            while True:
                reply, _ = conn.recv(timeout=10.0)
                if reply["type"] == "ok":
                    return reply

        push(seq=0)
        assert server.session.server.store.version == 1
        applied_once = {k: v.copy() for k, v in server.session.server.store.snapshot().items()}

        push(seq=0)  # retransmission: acked, weights untouched
        assert server.session.server.store.version == 1
        after_duplicate = server.session.server.store.snapshot()
        assert all(
            np.array_equal(applied_once[key], after_duplicate[key])
            for key in applied_once
        )
        assert server.session.watermarks["worker-0"] == 0

        push(seq=1)  # progress resumes past the duplicate
        assert server.session.server.store.version == 2
        assert server.session.watermarks["worker-0"] == 1

        conn.close()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        duplicates = [
            event
            for event in box["result"].events
            if event["kind"] == "duplicate_push"
        ]
        assert duplicates == [
            {"kind": "duplicate_push", "worker": "worker-0", "seq": 0, "watermark": 0}
        ]


class TestSupervisedRestart:
    def test_kill9_restart_resumes_bit_for_bit(self, tmp_path):
        # The watchdog path end to end: SIGKILL the server child mid-run,
        # the supervisor relaunches it on the same address from the latest
        # atomic checkpoint, the worker rides its reconnect budget, and the
        # final model is byte-identical to an uninterrupted run.
        from repro.ps.tcp_runtime import TcpSupervisor

        ctx = multiprocessing.get_context("spawn" if os.name == "nt" else "fork")
        base = dict(
            paradigm="bsp",
            paradigm_kwargs={},
            num_workers=1,
            iterations_per_worker=6,
            slowdowns={"worker-0": 0.4},
            checkpoint_every_pushes=1,
            wait_timeout=30.0,
        )

        reference = tiny_plan(
            checkpoint_path=str(tmp_path / "reference.npz"), **base
        )
        result = TcpTrainer(reference, context=ctx).run()
        assert result.errors == []

        supervised = tiny_plan(
            checkpoint_path=str(tmp_path / "supervised.npz"), **base
        )
        ready = threading.Event()
        box = {}

        def on_ready(address):
            box["address"] = address
            ready.set()

        supervisor = TcpSupervisor(
            supervised, context=ctx, max_restarts=3, ready_callback=on_ready
        )

        def run_supervisor():
            box["result"] = supervisor.run()

        thread = threading.Thread(target=run_supervisor, daemon=True)
        thread.start()
        assert ready.wait(30.0), "supervised server never bound"

        worker = ctx.Process(
            target=_worker_entry, args=(supervised, 0, box["address"]), daemon=True
        )
        worker.start()

        # Wait for the first atomic checkpoint so the restart has state to
        # restore, let a couple more pushes land, then hard-kill the child.
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and not os.path.exists(
            supervised.checkpoint_path
        ):
            time.sleep(0.05)
        assert os.path.exists(supervised.checkpoint_path)
        time.sleep(0.5)
        os.kill(supervisor.server_pid, signal.SIGKILL)

        worker.join(timeout=60.0)
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "supervisor never returned"
        assert worker.exitcode == 0

        final = box["result"]
        assert final is not None
        assert final.errors == []
        assert supervisor.restarts == 1
        kinds = [event["kind"] for event in final.events]
        assert "server_restart" in kinds
        assert "reconnect" in kinds
        assert final.server_statistics["store_version"] == 6
        _assert_checkpoints_match(
            tmp_path / "reference.npz", tmp_path / "supervised.npz"
        )

    def test_supervisor_requires_checkpoint_path(self):
        from repro.ps.tcp_runtime import TcpSupervisor

        with pytest.raises(ValueError, match="checkpoint_path"):
            TcpSupervisor(tiny_plan())
