"""Tests for the utility modules (rng, serialization, timing, logging)."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.rng import RngStream, seed_everything, spawn_rng
from repro.utils.serialization import (
    add_states,
    clone_state,
    flatten_state,
    scale_state,
    state_nbytes,
    state_num_parameters,
    states_allclose,
    unflatten_like,
)
from repro.utils.timing import Stopwatch, format_seconds


class TestRng:
    def test_seed_everything_returns_generator(self):
        generator = seed_everything(42)
        assert isinstance(generator, np.random.Generator)

    def test_rng_stream_same_name_same_generator(self):
        streams = RngStream(seed=1)
        assert streams.get("data") is streams.get("data")

    def test_rng_stream_is_order_independent(self):
        first = RngStream(seed=9)
        second = RngStream(seed=9)
        _ = first.get("other")
        a = first.get("data").normal(size=4)
        b = second.get("data").normal(size=4)
        assert np.allclose(a, b)

    def test_different_names_give_independent_streams(self):
        streams = RngStream(seed=2)
        assert not np.allclose(
            streams.get("a").normal(size=8), streams.get("b").normal(size=8)
        )

    def test_reset_recreates_streams(self):
        streams = RngStream(seed=3)
        first = streams.get("x").normal(size=4)
        streams.reset()
        second = streams.get("x").normal(size=4)
        assert np.allclose(first, second)

    def test_spawn_rng_deterministic(self):
        parent_a = np.random.default_rng(5)
        parent_b = np.random.default_rng(5)
        child_a = spawn_rng(parent_a, 1)
        child_b = spawn_rng(parent_b, 1)
        assert np.allclose(child_a.normal(size=4), child_b.normal(size=4))


class TestSerialization:
    @pytest.fixture
    def state(self):
        return {"w": np.arange(6, dtype=float).reshape(2, 3), "b": np.array([1.0, 2.0])}

    def test_clone_is_deep(self, state):
        clone = clone_state(state)
        clone["w"][0, 0] = 99.0
        assert state["w"][0, 0] == 0.0

    def test_flatten_unflatten_round_trip(self, state):
        vector = flatten_state(state)
        assert vector.shape == (8,)
        rebuilt = unflatten_like(vector, state)
        assert states_allclose(rebuilt, state)

    def test_unflatten_validates_length(self, state):
        with pytest.raises(ValueError):
            unflatten_like(np.zeros(3), state)

    def test_counts_and_bytes(self, state):
        assert state_num_parameters(state) == 8
        assert state_nbytes(state) == 8 * 8

    def test_states_allclose_detects_differences(self, state):
        other = clone_state(state)
        assert states_allclose(state, other)
        other["b"][0] += 1.0
        assert not states_allclose(state, other)
        assert not states_allclose(state, {"w": state["w"]})

    def test_add_and_scale(self, state):
        doubled = add_states(state, state)
        assert np.allclose(doubled["w"], state["w"] * 2)
        halved = scale_state(state, 0.5)
        assert np.allclose(halved["b"], [0.5, 1.0])
        with pytest.raises(ValueError):
            add_states(state, {"w": state["w"]})

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    def test_flatten_round_trip_property(self, shape_sizes):
        rng = np.random.default_rng(0)
        state = {
            f"p{i}": rng.normal(size=(size, size)) for i, size in enumerate(shape_sizes)
        }
        rebuilt = unflatten_like(flatten_state(state), state)
        assert states_allclose(rebuilt, state)


class TestTiming:
    def test_stopwatch_elapsed_and_laps(self):
        watch = Stopwatch()
        assert watch.elapsed() == 0.0
        watch.start()
        first = watch.lap()
        second = watch.lap()
        assert second >= first >= 0.0
        assert len(watch.laps) == 2

    def test_format_seconds(self):
        assert format_seconds(3.4) == "3.4s"
        assert format_seconds(65.0) == "1m05.0s"
        assert format_seconds(3723.0) == "1h02m03.0s"
        with pytest.raises(ValueError):
            format_seconds(-1.0)


class TestLogging:
    def test_get_logger_namespaces(self):
        assert get_logger("ps.server").name == "repro.ps.server"
        assert get_logger("repro.simulation").name == "repro.simulation"

    def test_enable_console_logging_idempotent(self):
        logger = enable_console_logging(logging.WARNING)
        handler_count = len(logger.handlers)
        enable_console_logging(logging.WARNING)
        assert len(logger.handlers) == handler_count
