"""Tests for the utility modules (rng, timing, logging)."""

import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.rng import RngStream
from repro.utils.timing import format_seconds


class TestRng:
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

    def test_seed_property_reports_the_master_seed(self):
        assert RngStream(seed=42).seed == 42
        assert RngStream(seed=np.int64(7)).seed == 7

    def test_different_seeds_give_different_streams(self):
        a = RngStream(seed=1).get("data").normal(size=8)
        b = RngStream(seed=2).get("data").normal(size=8)
        assert not np.allclose(a, b)

    def test_get_returns_a_numpy_generator(self):
        assert isinstance(RngStream(seed=0).get("init"), np.random.Generator)

    def test_streams_are_identical_in_a_fresh_interpreter(self):
        """Seeding must not depend on Python's per-process salted ``hash``."""
        source = Path(__file__).resolve().parents[2] / "src"
        script = (
            "from repro.utils.rng import RngStream;"
            "print(RngStream(seed=5).get('worker-3').integers(0, 2**31, size=4).tolist())"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, timeout=60,
            env={"PYTHONPATH": str(source), "PYTHONHASHSEED": "123"},
        )
        expected = RngStream(seed=5).get("worker-3").integers(0, 2**31, size=4).tolist()
        assert result.stdout.strip() == str(expected)


class TestTiming:
    @pytest.mark.parametrize(
        "seconds,text",
        [
            (0.0, "0.0s"),
            (59.94, "59.9s"),
            (60.0, "1m00.0s"),
            (3599.0, "59m59.0s"),
            (3600.0, "1h00m00.0s"),
            (7322.5, "2h02m02.5s"),
        ],
    )
    def test_format_seconds_at_unit_boundaries(self, seconds, text):
        assert format_seconds(seconds) == text

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
