"""Shared utilities: seeded RNG management, logging, timing, serialization."""

from repro.utils.rng import RngStream, seed_everything, spawn_rng
from repro.utils.timing import Stopwatch, format_seconds
from repro.utils.profiler import LayerProfiler, LayerTiming
from repro.utils.logging import get_logger
from repro.utils.serialization import (
    flatten_state,
    state_num_parameters,
    state_nbytes,
    states_allclose,
    clone_state,
)

__all__ = [
    "RngStream",
    "seed_everything",
    "spawn_rng",
    "Stopwatch",
    "format_seconds",
    "LayerProfiler",
    "LayerTiming",
    "get_logger",
    "flatten_state",
    "state_num_parameters",
    "state_nbytes",
    "states_allclose",
    "clone_state",
]
