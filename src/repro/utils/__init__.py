"""Shared utilities: seeded RNG streams, logging, duration formatting,
the per-layer profiler and the name registry."""

from repro.utils.rng import RngStream
from repro.utils.timing import format_seconds
from repro.utils.profiler import LayerProfiler, LayerTiming
from repro.utils.logging import get_logger

__all__ = [
    "RngStream",
    "format_seconds",
    "LayerProfiler",
    "LayerTiming",
    "get_logger",
]
