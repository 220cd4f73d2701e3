"""Tests for the DSSP policy (paper Algorithm 1)."""

import pytest

from repro.core.dssp import DynamicStaleSynchronousParallel


def make_dssp(s_lower=1, s_upper=4, num_workers=2, **kwargs):
    policy = DynamicStaleSynchronousParallel(s_lower=s_lower, s_upper=s_upper, **kwargs)
    for index in range(num_workers):
        policy.register_worker(f"w{index}")
    return policy


class TestConstruction:
    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            DynamicStaleSynchronousParallel(s_lower=-1, s_upper=3)
        with pytest.raises(ValueError):
            DynamicStaleSynchronousParallel(s_lower=5, s_upper=3)

    def test_r_max_is_range_width(self):
        policy = DynamicStaleSynchronousParallel(s_lower=3, s_upper=15)
        assert policy.r_max == 12
        assert policy.controller.max_extra_iterations == 12

    def test_degenerate_range_equals_ssp_behaviour(self):
        policy = make_dssp(s_lower=2, s_upper=2)
        outcomes = [policy.on_push("w0", float(index)) for index in range(5)]
        # Identical to SSP with s=2: leads of 1 and 2 are fine, lead 3 blocks.
        assert [outcome.release for outcome in outcomes[:3]] == [True, True, False]


class TestLowerThresholdRule:
    def test_releases_within_lower_threshold(self):
        policy = make_dssp(s_lower=2, s_upper=6)
        assert policy.on_push("w0", 0.0).release
        assert policy.on_push("w0", 1.0).release

    def test_blocks_without_timing_history(self):
        # Before both workers have pushed twice the controller cannot predict
        # and must fall back to r* = 0, so the pushing worker blocks.
        policy = make_dssp(s_lower=1, s_upper=5)
        policy.on_push("w0", 0.0)
        outcome = policy.on_push("w0", 1.0)
        assert outcome.blocked
        assert outcome.controller_extra_iterations == 0


class TestExtraIterationCredits:
    def _warm_up(self, policy):
        """Give both workers two pushes so the controller has intervals.

        Leaves w0 (fast, interval 1.0) and w1 (slow, interval 2.6) at clock 2
        each; the next two w0 pushes bring its lead to 1 (released by the
        s_lower rule) and then 2 (which triggers the controller).
        """
        policy.on_push("w0", 0.0)
        policy.on_push("w1", 0.5)
        policy.on_push("w0", 1.0)
        policy.on_push("w1", 3.1)  # slow worker: interval 2.6
        policy.on_push("w0", 2.0)  # lead 1: released by the s_lower rule

    def test_controller_grants_extra_iterations_to_fastest(self):
        policy = make_dssp(s_lower=1, s_upper=9)
        self._warm_up(policy)
        # w0 pushes again, reaching lead 2 > s_lower: controller is consulted.
        outcome = policy.on_push("w0", 3.0)
        assert outcome.release
        assert outcome.used_extra_credit
        assert outcome.controller_extra_iterations is not None
        assert outcome.controller_extra_iterations >= 1
        # One credit was consumed by this release.
        assert policy.credit("w0") == outcome.controller_extra_iterations - 1

    def test_credits_consumed_on_subsequent_pushes(self):
        policy = make_dssp(s_lower=1, s_upper=9)
        self._warm_up(policy)
        first = policy.on_push("w0", 3.0)
        granted = first.controller_extra_iterations
        assert granted >= 1
        for step in range(granted - 1):
            outcome = policy.on_push("w0", 4.0 + step)
            assert outcome.release
            assert outcome.used_extra_credit
        assert policy.credit("w0") == 0

    def test_non_fastest_worker_blocks_without_controller(self):
        policy = make_dssp(s_lower=0, s_upper=5, num_workers=3)
        # Give every worker two pushes; w2 stays behind afterwards.
        for worker, time in (("w0", 0.0), ("w1", 0.3), ("w2", 0.6)):
            policy.on_push(worker, time)
        for worker, time in (("w0", 1.0), ("w1", 1.3), ("w2", 1.6)):
            policy.on_push(worker, time)
        # w0 runs ahead (clock 4); w1 then pushes with lead 1 over w2 but is
        # not the fastest, so it blocks without consulting the controller.
        policy.on_push("w0", 2.0)
        policy.on_push("w0", 3.0)
        outcome = policy.on_push("w1", 2.3)
        assert outcome.blocked
        assert outcome.controller_extra_iterations is None


class TestUpperBoundEnforcement:
    def _drive_fast_worker(self, policy, iterations=30):
        """w0 pushes often, w1 rarely; returns the maximum observed lead."""
        policy.on_push("w0", 0.0)
        policy.on_push("w1", 0.5)
        policy.on_push("w0", 1.0)
        policy.on_push("w1", 3.1)
        max_lead = 0
        time = 2.0
        blocked = False
        slow_clock = 2
        for step in range(iterations):
            if not blocked:
                outcome = policy.on_push("w0", time)
                blocked = outcome.blocked
                lead = policy.clock_table.clock("w0") - policy.clock_table.clock("w1")
                max_lead = max(max_lead, lead)
                time += 1.0
            else:
                slow_clock += 1
                policy.on_push("w1", time + 2.6)
                time += 2.6
                if "w0" in policy.pop_releasable():
                    blocked = False
        return max_lead

    def test_literal_algorithm_can_exceed_upper_bound(self):
        policy = make_dssp(s_lower=1, s_upper=3, enforce_upper_bound=False)
        assert self._drive_fast_worker(policy) > 3

    def test_strict_variant_respects_upper_bound(self):
        policy = make_dssp(s_lower=1, s_upper=3, enforce_upper_bound=True)
        assert self._drive_fast_worker(policy) <= 3

    def test_blocked_worker_waits_for_lower_threshold(self):
        policy = make_dssp(s_lower=1, s_upper=2, enforce_upper_bound=True)
        policy.on_push("w0", 0.0)
        policy.on_push("w1", 0.5)
        policy.on_push("w0", 1.0)
        policy.on_push("w1", 3.1)
        policy.on_push("w0", 2.0)
        policy.on_push("w0", 3.0)
        outcome = policy.on_push("w0", 4.0)
        if outcome.blocked:
            # One slow push is not enough to bring the lead back to s_lower.
            policy.on_push("w1", 5.7)
            released_after_one = policy.pop_releasable()
            policy.on_push("w1", 8.3)
            released_after_two = policy.pop_releasable()
            assert "w0" in released_after_one + released_after_two


class TestStatistics:
    def test_controller_invocations_counted(self):
        policy = make_dssp(s_lower=1, s_upper=9)
        policy.on_push("w0", 0.0)
        policy.on_push("w1", 0.5)
        policy.on_push("w0", 1.0)
        policy.on_push("w1", 3.1)
        policy.on_push("w0", 2.0)
        policy.on_push("w0", 3.0)
        stats = policy.statistics()
        assert stats["paradigm"] == "dssp"
        assert stats["controller_invocations"] >= 1
        assert len(policy.controller_decisions()) >= 1
