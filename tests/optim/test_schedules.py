"""Tests for the learning-rate schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.schedules import MultiStepSchedule


class TestMultiStep:
    def test_paper_schedule(self):
        """The paper decays lr 0.05 by 0.1 at epochs 200 and 250 (of 300)."""
        schedule = MultiStepSchedule(0.05, milestones=(200, 250), decay=0.1)
        assert schedule.learning_rate(100) == pytest.approx(0.05)
        assert schedule.learning_rate(200) == pytest.approx(0.005)
        assert schedule.learning_rate(249) == pytest.approx(0.005)
        assert schedule.learning_rate(250) == pytest.approx(0.0005)

    def test_unsorted_milestones_are_sorted(self):
        schedule = MultiStepSchedule(1.0, milestones=(30, 10), decay=0.1)
        assert schedule.learning_rate(20) == pytest.approx(0.1)

    @settings(max_examples=25, deadline=None)
    @given(progress=st.floats(min_value=0, max_value=500, allow_nan=False))
    def test_rate_never_increases_with_progress(self, progress):
        schedule = MultiStepSchedule(0.05, milestones=(200, 250), decay=0.1)
        assert schedule.learning_rate(progress + 10) <= schedule.learning_rate(progress)

    @pytest.mark.parametrize("rate", [0.0, -0.05])
    def test_non_positive_base_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="base_learning_rate"):
            MultiStepSchedule(rate, milestones=(10,))

    @pytest.mark.parametrize("decay", [0.0, -0.1, 1.5])
    def test_decay_outside_unit_interval_rejected(self, decay):
        with pytest.raises(ValueError, match="decay"):
            MultiStepSchedule(0.05, milestones=(10,), decay=decay)

    def test_decay_of_one_holds_the_base_rate(self):
        schedule = MultiStepSchedule(0.05, milestones=(200, 250), decay=1.0)
        assert {schedule.learning_rate(p) for p in (0, 200, 250, 1e6)} == {0.05}

    def test_no_milestones_holds_the_base_rate(self):
        schedule = MultiStepSchedule(0.05, milestones=())
        assert schedule.learning_rate(0) == schedule.learning_rate(1e6) == 0.05

    def test_calling_the_schedule_is_learning_rate(self):
        schedule = MultiStepSchedule(0.05, milestones=(200, 250))
        assert [schedule(p) for p in (0, 200, 300)] == [
            schedule.learning_rate(p) for p in (0, 200, 300)
        ]

    def test_a_repeated_milestone_decays_twice(self):
        schedule = MultiStepSchedule(1.0, milestones=(10, 10), decay=0.5)
        assert schedule.learning_rate(9.99) == 1.0
        assert schedule.learning_rate(10) == pytest.approx(0.25)

    def test_fractional_progress_switches_exactly_at_the_milestone(self):
        schedule = MultiStepSchedule(1.0, milestones=(2.5,), decay=0.1)
        assert schedule.learning_rate(2.4999) == 1.0
        assert schedule.learning_rate(2.5) == pytest.approx(0.1)
