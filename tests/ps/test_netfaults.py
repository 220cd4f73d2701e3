"""Tests for deterministic network-fault injection (repro.ps.netfaults).

Covers the per-push decision schedule and its determinism guarantee (two
schedules of one seed produce identical decision and event sequences), the
chaos connection wrapper over a real socketpair (torn frames must surface
as :class:`ConnectionClosed`, never as partial data), and the retry
budget's bounded jittered backoff.  Parsing ``net_faults`` entries is the
one fault parser's, tested in ``test_faults.py``.
"""

import socket
import time

import pytest

from repro.ps.faults import parse_fault_plan
from repro.ps.netfaults import ChaosConnection, ChaosDecision, NetFaultSchedule, RetryBudget
from repro.ps.transport import ConnectionClosed, TcpConnection

WORKERS = ["worker-0", "worker-1", "worker-2"]


# ----------------------------------------------------------------------
# The per-push decision schedule
# ----------------------------------------------------------------------
def _schedule(specs, worker="worker-0", seed=0, clock=None):
    plan = parse_fault_plan((), specs, WORKERS)
    kwargs = {} if clock is None else {"clock": clock}
    return NetFaultSchedule(plan, worker, seed, **kwargs)


class TestSchedule:
    def test_same_seed_produces_identical_decisions_and_events(self):
        specs = [{"spec": "delay:5"}, {"spec": "drop:0.5,0"}]
        first = _schedule(specs, seed=7)
        second = _schedule(specs, seed=7)
        decisions_a = [first.next_push(100) for _ in range(32)]
        decisions_b = [second.next_push(100) for _ in range(32)]
        assert decisions_a == decisions_b
        assert first.events == second.events
        assert any(d.drop for d in decisions_a)  # the chaos actually fired

    def test_different_workers_draw_independent_streams(self):
        specs = [{"spec": "drop:0.5,0"}]
        a = [_schedule(specs, "worker-0", 7).next_push(0) for _ in range(1)]
        mine = _schedule(specs, "worker-0", 7)
        other = _schedule(specs, "worker-1", 7)
        assert [mine.next_push(0) for _ in range(32)] != [
            other.next_push(0) for _ in range(32)
        ]
        assert a  # silence the unused-probe lint

    def test_delay_jitter_stays_in_band(self):
        schedule = _schedule([{"spec": "delay:100"}])
        for _ in range(64):
            decision = schedule.next_push(0)
            assert 0.05 <= decision.delay < 0.15
            assert decision.drop is None

    def test_throttle_paces_by_bytes(self):
        schedule = _schedule([{"spec": "throttle:1000"}])
        assert schedule.next_push(500).throttle == pytest.approx(0.5)
        assert schedule.next_push(0).throttle == 0.0

    def test_drop_times_bounds_firings(self):
        schedule = _schedule([{"spec": "drop:1.0,2"}])
        decisions = [schedule.next_push(0) for _ in range(8)]
        assert sum(1 for d in decisions if d.drop) == 2
        assert [e["kind"] for e in schedule.events] == ["net_drop", "net_drop"]
        assert [e["push"] for e in schedule.events] == [0, 1]

    def test_partition_window_with_fake_clock(self):
        now = {"t": 0.0}
        schedule = _schedule(
            [{"spec": "partition:2,3"}], clock=lambda: now["t"]
        )
        assert schedule.next_push(0).drop is None
        assert schedule.partition_wait() == 0.0
        now["t"] = 3.0  # inside [2, 5)
        assert schedule.next_push(0).drop == "torn"
        assert schedule.partition_wait() == pytest.approx(2.0)
        held = []
        schedule.hold_reconnect(sleep=held.append)
        assert held == [pytest.approx(2.0)]
        now["t"] = 6.0  # window closed
        assert schedule.next_push(0).drop is None
        assert schedule.hold_reconnect(sleep=held.append) == 0.0
        partition_events = [
            e for e in schedule.events if e["kind"] == "net_partition"
        ]
        assert len(partition_events) == 1  # logged once, with the spec window
        assert partition_events[0]["start"] == 2.0
        assert partition_events[0]["duration"] == 3.0

    def test_mark_start_reanchors_partition_window_once(self):
        now = {"t": 0.0}
        schedule = _schedule(
            [{"spec": "partition:2,3"}], clock=lambda: now["t"]
        )
        # Slow startup: by the time training starts the [2, 5) window
        # (measured from creation) would already be half gone.
        now["t"] = 4.0
        schedule.mark_start()
        assert schedule.next_push(0).drop is None  # window now [6, 9)
        now["t"] = 7.0
        assert schedule.next_push(0).drop in ("torn", "sent")
        assert schedule.partition_wait() == pytest.approx(2.0)
        # A rejoin replays the start path; the second call must not
        # reopen the window after it has been served.
        now["t"] = 10.0
        schedule.mark_start()
        assert schedule.next_push(0).drop is None
        assert schedule.partition_wait() == 0.0

    def test_an_untargeted_worker_is_never_hit(self):
        plan = parse_fault_plan((), [{"spec": "drop:1.0,0", "worker": 1}], WORKERS)
        spared = NetFaultSchedule(plan, "worker-0", 0)
        hit = NetFaultSchedule(plan, "worker-1", 0)
        assert all(spared.next_push(0) == ChaosDecision(push) for push in range(8))
        assert all(hit.next_push(0).drop for _ in range(8))
        assert spared.events == []


# ----------------------------------------------------------------------
# The chaos connection wrapper (real sockets)
# ----------------------------------------------------------------------
def _connected_pair():
    left, right = socket.socketpair()
    return TcpConnection(left), TcpConnection(right)


def _schedule_with_phase(phase: str) -> NetFaultSchedule:
    """A drop schedule whose first firing has the requested phase.

    The phase draw is deterministic per seed, so probing seeds until one
    yields the wanted phase keeps the test itself deterministic.
    """
    for seed in range(256):
        plan = parse_fault_plan((), [{"spec": "drop"}], WORKERS)
        if NetFaultSchedule(plan, "worker-0", seed).next_push(0).drop == phase:
            return NetFaultSchedule(plan, "worker-0", seed)
    pytest.fail(f"no seed under 256 yields a {phase!r} drop")


PUSH = {"type": "push", "worker": "worker-0", "seq": 0, "base_version": 0}


class TestChaosConnection:
    def test_control_traffic_passes_through(self):
        sender, receiver = _connected_pair()
        chaos = ChaosConnection(sender, _schedule_with_phase("torn"))
        chaos.send({"type": "heartbeat", "worker": "worker-0"})
        header, frames = receiver.recv(timeout=5.0)
        assert header["type"] == "heartbeat"
        assert frames == ()
        chaos.close()
        receiver.close()

    def test_torn_drop_never_surfaces_partial_data(self):
        # The peer must see a mid-frame EOF as ConnectionClosed — a torn
        # push can never decode into a partial message.
        sender, receiver = _connected_pair()
        chaos = ChaosConnection(sender, _schedule_with_phase("torn"))
        with pytest.raises(ConnectionClosed, match="chaos"):
            chaos.send(dict(PUSH))
        with pytest.raises(ConnectionClosed):
            receiver.recv(timeout=5.0)
        receiver.close()

    def test_sent_drop_delivers_then_tears(self):
        # The push lands in full — the "lost OK" half of exactly-once —
        # and only then does the socket die.
        sender, receiver = _connected_pair()
        chaos = ChaosConnection(sender, _schedule_with_phase("sent"))
        with pytest.raises(ConnectionClosed, match="chaos"):
            chaos.send(dict(PUSH))
        header, _ = receiver.recv(timeout=5.0)
        assert header == PUSH
        with pytest.raises(ConnectionClosed):  # then EOF, cleanly framed
            receiver.recv(timeout=5.0)
        receiver.close()

    def test_exhausted_drop_budget_sends_normally(self):
        schedule = _schedule_with_phase("torn")
        sender, receiver = _connected_pair()
        chaos = ChaosConnection(sender, schedule)
        with pytest.raises(ConnectionClosed):
            chaos.send(dict(PUSH))
        # times=1: the next push on a fresh socket passes untouched.
        sender2, receiver2 = _connected_pair()
        chaos2 = ChaosConnection(sender2, schedule)
        chaos2.send(dict(PUSH))
        header, _ = receiver2.recv(timeout=5.0)
        assert header == PUSH
        chaos2.close()
        receiver.close()
        receiver2.close()

    def test_torn_frame_mid_ok_raises_not_partial(self):
        # The worker's OK-wait path: a server dying mid-OK leaves half a
        # frame on the wire.  recv must raise, not return partial data.
        sender, receiver = _connected_pair()
        raw = sender.encode({"type": "ok", "worker": "worker-0"})
        sender.send_raw(bytes(raw[: len(raw) // 2]))
        sender.close()
        with pytest.raises(ConnectionClosed):
            receiver.recv(timeout=5.0)
        receiver.close()


# ----------------------------------------------------------------------
# Retry budgets
# ----------------------------------------------------------------------
class _FakeRng:
    """rng.random() == 0.5 → jitter factor exactly 1.0."""

    def random(self):
        return 0.5


class TestRetryBudget:
    def test_backoff_doubles_and_caps(self):
        sleeps = []
        budget = RetryBudget(
            max_attempts=6,
            base_delay=0.1,
            max_delay=0.5,
            rng=_FakeRng(),
            sleep=sleeps.append,
        )
        assert list(budget.attempts()) == [0, 1, 2, 3, 4, 5]
        assert sleeps == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_deadline_ends_the_generator(self):
        now = {"t": 0.0}

        def sleep(seconds):
            now["t"] += seconds

        budget = RetryBudget(
            max_attempts=100,
            base_delay=1.0,
            max_delay=1.0,
            deadline=2.5,
            rng=_FakeRng(),
            sleep=sleep,
            clock=lambda: now["t"],
        )
        attempts = list(budget.attempts())
        # Tries land at t=0, 1, 2, then 2.5 (the last pause is clamped to
        # the remaining budget); at t=2.5 the deadline is spent and the
        # generator ends.
        assert len(attempts) == 4
        assert now["t"] == pytest.approx(2.5)

    def test_for_else_fires_on_exhaustion(self):
        budget = RetryBudget(max_attempts=2, base_delay=0.0, sleep=lambda _: None)
        for _ in budget.attempts():
            pass
        else_ran = False
        for _ in RetryBudget(
            max_attempts=2, base_delay=0.0, sleep=lambda _: None
        ).attempts():
            continue
        else:
            else_ran = True
        assert else_ran

    def test_jitter_uses_injected_rng(self):
        sleeps = []
        RetryBudget(
            max_attempts=2, base_delay=1.0, rng=_FakeRng(), sleep=sleeps.append
        ).attempts().__next__()  # prime the generator
        budget = RetryBudget(
            max_attempts=2, base_delay=1.0, rng=_FakeRng(), sleep=sleeps.append
        )
        list(budget.attempts())
        assert budget.sleeps == [pytest.approx(1.0)]

    def test_real_clock_smoke(self):
        start = time.monotonic()
        budget = RetryBudget(max_attempts=3, base_delay=0.01, max_delay=0.02)
        assert len(list(budget.attempts())) == 3
        assert time.monotonic() - start < 1.0
