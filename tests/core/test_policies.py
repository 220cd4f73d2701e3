"""Tests for the BSP, ASP and SSP synchronization policies."""

import random

import pytest

from repro.core.asp import AsynchronousParallel
from repro.core.bsp import BulkSynchronousParallel
from repro.core.ssp import StaleSynchronousParallel


def make_policy(policy_cls, num_workers=3, **kwargs):
    policy = policy_cls(**kwargs)
    for index in range(num_workers):
        policy.register_worker(f"w{index}")
    return policy


class TestBsp:
    def test_first_worker_to_finish_round_blocks(self):
        policy = make_policy(BulkSynchronousParallel)
        assert policy.on_push("w0", 1.0).blocked
        assert policy.on_push("w1", 1.1).blocked

    def test_last_worker_of_round_releases_everyone(self):
        policy = make_policy(BulkSynchronousParallel)
        policy.on_push("w0", 1.0)
        policy.on_push("w1", 1.1)
        outcome = policy.on_push("w2", 1.2)
        assert outcome.release
        assert set(policy.pop_releasable()) == {"w0", "w1"}

    def test_lockstep_over_multiple_rounds(self):
        policy = make_policy(BulkSynchronousParallel, num_workers=2)
        for round_index in range(5):
            first = policy.on_push("w0", float(round_index))
            second = policy.on_push("w1", float(round_index) + 0.5)
            assert first.blocked
            assert second.release
            assert policy.pop_releasable() == ["w0"]

    def test_staleness_never_exceeds_one(self):
        policy = make_policy(BulkSynchronousParallel, num_workers=2)
        max_staleness = 0
        for round_index in range(10):
            a = policy.on_push("w0", float(round_index))
            b = policy.on_push("w1", float(round_index) + 0.1)
            policy.pop_releasable()
            max_staleness = max(max_staleness, a.staleness, b.staleness)
        assert max_staleness <= 1


class TestAsp:
    def test_every_push_released_immediately(self):
        policy = make_policy(AsynchronousParallel)
        for index in range(20):
            outcome = policy.on_push("w0", float(index))
            assert outcome.release
        assert policy.pop_releasable() == []

    def test_staleness_unbounded(self):
        policy = make_policy(AsynchronousParallel, num_workers=2)
        last = None
        for index in range(15):
            last = policy.on_push("w0", float(index))
        assert last.staleness == 15

    def test_statistics_count_releases(self):
        policy = make_policy(AsynchronousParallel, num_workers=2)
        for index in range(4):
            policy.on_push("w0", float(index))
        stats = policy.statistics()
        assert stats["pushes"] == 4
        assert stats["blocks"] == 0

    def test_staleness_statistics_match_the_full_observation_list(self):
        """The running sum and max report what a list of every push would."""
        rng = random.Random(7)
        policy = make_policy(AsynchronousParallel, num_workers=4)
        observed = []
        for index in range(10_000):
            worker = f"w{rng.choices(range(4), weights=[8, 4, 2, 1])[0]}"
            observed.append(policy.on_push(worker, float(index)).staleness)
        stats = policy.statistics()
        assert stats["pushes"] == len(observed)
        assert stats["mean_staleness"] == float(sum(observed)) / len(observed)
        assert stats["max_staleness"] == max(observed) > 0
        assert not any(isinstance(value, list) for value in vars(policy.counters).values())


class TestSsp:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            StaleSynchronousParallel(staleness=-1)

    def test_zero_threshold_behaves_like_bsp(self):
        policy = make_policy(StaleSynchronousParallel, num_workers=2, staleness=0)
        assert policy.on_push("w0", 1.0).blocked
        assert policy.on_push("w1", 1.1).release
        assert policy.pop_releasable() == ["w0"]

    def test_worker_may_lead_by_threshold(self):
        policy = make_policy(StaleSynchronousParallel, num_workers=2, staleness=3)
        outcomes = [policy.on_push("w0", float(index)) for index in range(5)]
        # Leads of 1, 2, 3 are allowed; the push that creates lead 4 blocks.
        assert [outcome.release for outcome in outcomes] == [True, True, True, False, False]

    def test_blocked_worker_released_when_slowest_catches_up(self):
        policy = make_policy(StaleSynchronousParallel, num_workers=2, staleness=2)
        outcomes = [policy.on_push("w0", float(index)) for index in range(3)]
        assert outcomes[-1].blocked
        policy.on_push("w1", 10.0)
        assert policy.pop_releasable() == ["w0"]
        assert policy.pop_releasable() == []

    def test_lead_bound_holds_over_random_schedule(self):
        policy = make_policy(StaleSynchronousParallel, num_workers=3, staleness=2)
        import random

        rand = random.Random(0)
        blocked = set()
        time = 0.0
        for _ in range(200):
            candidates = [w for w in ("w0", "w1", "w2") if w not in blocked]
            if not candidates:
                break
            worker = rand.choice(candidates)
            time += 1.0
            outcome = policy.on_push(worker, time)
            if outcome.blocked:
                blocked.add(worker)
            for released in policy.pop_releasable():
                blocked.discard(released)
            clocks = policy.clock_table.clocks()
            # Released workers never exceed the bound by more than one
            # in-flight iteration.
            assert max(clocks.values()) - min(clocks.values()) <= 2 + 1

    def test_statistics_report_threshold_name(self):
        policy = make_policy(StaleSynchronousParallel, staleness=4)
        assert policy.statistics()["paradigm"] == "ssp"
        assert policy.effective_threshold() == 4


class TestElasticMembership:
    """Membership changes re-bound the policies (the tcp runtime's path)."""

    def test_ssp_dead_straggler_releases_blocked_fast_worker(self):
        policy = make_policy(StaleSynchronousParallel, num_workers=2, staleness=1)
        assert not policy.on_push("w0", 1.0).blocked  # lead 1 == threshold
        assert policy.on_push("w0", 2.0).blocked  # lead 2 over w1 at clock 0
        assert policy.pop_releasable() == []
        policy.deregister_worker("w1")
        # The straggler is gone: the bound is recomputed over the survivor.
        assert policy.pop_releasable() == ["w0"]

    def test_ssp_late_joiner_at_slowest_clock_is_not_a_straggler(self):
        policy = make_policy(StaleSynchronousParallel, num_workers=2, staleness=1)
        for _ in range(3):
            policy.on_push("w0", 1.0)
            policy.on_push("w1", 1.0)
        policy.register_worker("w9", initial_clock=policy.clock_table.slowest_clock())
        # Joining at the slowest clock, it neither blocks the cluster nor
        # blocks itself: its first push sits within the staleness bound.
        assert not policy.on_push("w9", 2.0).blocked
        assert not policy.on_push("w0", 2.0).blocked

    def test_bsp_dead_worker_shrinks_the_round(self):
        policy = make_policy(BulkSynchronousParallel, num_workers=3)
        assert policy.on_push("w0", 1.0).blocked
        assert policy.on_push("w1", 1.0).blocked
        policy.deregister_worker("w2")
        # The round barrier is now two-wide and both members have pushed.
        assert sorted(policy.pop_releasable()) == ["w0", "w1"]

    def test_dssp_deregister_forgets_credits(self):
        from repro.core.dssp import DynamicStaleSynchronousParallel

        policy = make_policy(
            DynamicStaleSynchronousParallel, num_workers=2, s_lower=1, s_upper=4
        )
        policy.on_push("w0", 1.0)
        policy.deregister_worker("w0")
        policy.register_worker("w0", initial_clock=policy.clock_table.slowest_clock())
        assert not policy.on_push("w0", 2.0).blocked
