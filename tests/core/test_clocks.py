"""Tests for the worker clock table."""

import pytest

from repro.core.clocks import ClockTable


@pytest.fixture
def table() -> ClockTable:
    table = ClockTable()
    for worker in ("a", "b", "c"):
        table.register_worker(worker)
    return table


class TestRegistration:
    def test_workers_start_at_clock_zero(self, table):
        assert table.clocks() == {"a": 0, "b": 0, "c": 0}

    def test_duplicate_registration_rejected(self, table):
        with pytest.raises(ValueError):
            table.register_worker("a")

    def test_unknown_worker_rejected(self, table):
        with pytest.raises(KeyError):
            table.clock("unknown")

    def test_worker_ids_preserved_in_order(self, table):
        assert table.worker_ids == ["a", "b", "c"]
        assert table.num_workers == 3


class TestRecording:
    def test_push_increments_clock(self, table):
        assert table.record_push("a", 1.0) == 1
        assert table.record_push("a", 2.0) == 2
        assert table.clock("a") == 2
        assert table.clock("b") == 0

    def test_push_timestamps_must_not_go_backwards(self, table):
        table.record_push("a", 5.0)
        with pytest.raises(ValueError):
            table.record_push("a", 4.0)

    def test_equal_timestamps_allowed(self, table):
        table.record_push("a", 5.0)
        assert table.record_push("a", 5.0) == 2

    def test_latest_interval_requires_two_pushes(self, table):
        assert table.latest_interval("a") is None
        table.record_push("a", 1.0)
        assert table.latest_interval("a") is None
        table.record_push("a", 3.5)
        assert table.latest_interval("a") == pytest.approx(2.5)


class TestQueries:
    def test_slowest_and_fastest(self, table):
        table.record_push("a", 1.0)
        table.record_push("a", 2.0)
        table.record_push("b", 1.5)
        assert table.fastest_worker() == "a"
        assert table.slowest_worker() == "c"
        assert table.fastest_clock() == 2
        assert table.slowest_clock() == 0

    def test_staleness_is_lead_over_slowest(self, table):
        for _ in range(3):
            table.record_push("a", 1.0)
        table.record_push("b", 1.0)
        assert table.staleness("a") == 3
        assert table.staleness("b") == 1
        assert table.staleness("c") == 0

    def test_is_fastest_handles_ties(self, table):
        table.record_push("a", 1.0)
        table.record_push("b", 1.0)
        assert table.is_fastest("a")
        assert table.is_fastest("b")
        assert not table.is_fastest("c")

    def test_empty_table_queries(self):
        empty = ClockTable()
        assert empty.slowest_clock() == 0
        assert empty.fastest_clock() == 0
        with pytest.raises(RuntimeError):
            empty.slowest_worker()


class TestElasticMembership:
    def test_late_joiner_starts_at_given_clock(self, table):
        table.register_worker("d", initial_clock=5)
        assert table.clocks()["d"] == 5
        assert table.slowest_clock() == 0  # existing members unaffected

    def test_negative_initial_clock_rejected(self, table):
        with pytest.raises(ValueError, match="initial_clock"):
            table.register_worker("d", initial_clock=-1)

    def test_deregistering_the_straggler_raises_slowest_clock(self, table):
        for _ in range(3):
            table.record_push("a", 1.0)
        for _ in range(2):
            table.record_push("c", 1.0)
        table.record_push("b", 1.0)
        assert table.slowest_clock() == 1
        table.deregister_worker("b")
        assert table.slowest_clock() == 2
        assert sorted(table.clocks()) == ["a", "c"]

    def test_deregister_unknown_worker_rejected(self, table):
        with pytest.raises(KeyError):
            table.deregister_worker("ghost")

    def test_deregistered_id_may_register_again(self, table):
        # The restart path: a reconnecting worker re-registers at its
        # checkpointed clock.
        table.deregister_worker("a")
        table.register_worker("a", initial_clock=7)
        assert table.clocks()["a"] == 7
