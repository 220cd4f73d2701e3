"""Tests for the policy factory and the staleness tracker."""

import numpy as np
import pytest

from repro.core.asp import AsynchronousParallel
from repro.core.bsp import BulkSynchronousParallel
from repro.core.dssp import DynamicStaleSynchronousParallel
from repro.core.factory import POLICIES, make_policy
from repro.core.ssp import StaleSynchronousParallel
from repro.core.staleness import StalenessSummary, StalenessTracker


class TestFactory:
    def test_available_policies(self):
        assert list(POLICIES) == ["bsp", "asp", "ssp", "dssp"]

    def test_makes_each_paradigm(self):
        assert isinstance(make_policy("bsp"), BulkSynchronousParallel)
        assert isinstance(make_policy("asp"), AsynchronousParallel)
        assert isinstance(make_policy("ssp", staleness=3), StaleSynchronousParallel)
        assert isinstance(
            make_policy("dssp", s_lower=3, s_upper=15), DynamicStaleSynchronousParallel
        )

    def test_name_is_case_insensitive(self):
        assert isinstance(make_policy("  BSP "), BulkSynchronousParallel)

    def test_ssp_requires_staleness(self):
        with pytest.raises(ValueError):
            make_policy("ssp")

    def test_dssp_requires_range(self):
        with pytest.raises(ValueError):
            make_policy("dssp", s_lower=3)

    def test_dssp_passes_bound_flag(self):
        policy = make_policy("dssp", s_lower=1, s_upper=4, enforce_upper_bound=True)
        assert policy.enforce_upper_bound is True

    def test_unknown_paradigm_rejected(self):
        with pytest.raises(ValueError):
            make_policy("gossip")

    def test_unknown_parameters_rejected(self):
        with pytest.raises(TypeError):
            make_policy("bsp", staleness=3)
        with pytest.raises(TypeError):
            make_policy("ssp", staleness=3, bogus=1)


class TestStalenessTracker:
    def test_empty_summary(self):
        tracker = StalenessTracker()
        summary = tracker.summary()
        assert summary == StalenessSummary.empty()
        assert summary.count == 0

    def test_summary_statistics(self):
        tracker = StalenessTracker()
        for value in (0, 1, 2, 3, 10):
            tracker.record(value)
        summary = tracker.summary()
        assert summary.count == 5
        assert summary.maximum == 10
        assert summary.mean == pytest.approx(3.2)
        assert summary.p50 == pytest.approx(2.0)

    def test_negative_staleness_rejected(self):
        tracker = StalenessTracker()
        with pytest.raises(ValueError):
            tracker.record(-1)

    def test_summaries_equal_a_full_history(self):
        # 10k pushes with ASP-like heavy tails: the count table summarizes
        # exactly as the recorded sequence would.
        rng = np.random.default_rng(28)
        tracker = StalenessTracker()
        everything: list[int] = []
        for _ in range(10_000):
            value = int(rng.geometric(0.05)) - 1
            tracker.record(value)
            everything.append(value)

        def reference(values):
            array = np.asarray(values, dtype=np.float64)
            return StalenessSummary(
                count=int(array.size),
                mean=float(array.mean()),
                maximum=int(array.max()),
                p50=float(np.percentile(array, 50)),
                p95=float(np.percentile(array, 95)),
            )

        assert tracker.summary() == reference(everything)
