"""Weight initialization schemes."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kaiming_uniform", "kaiming_normal", "zeros", "ones"]


def _fan_in(shape: tuple[int, ...]) -> int:
    """Fan-in of a linear (out,in) or conv (out,in,kh,kw) weight shape."""
    if len(shape) == 2:
        return shape[1]
    if len(shape) == 4:
        _, in_channels, kernel_h, kernel_w = shape
        return in_channels * kernel_h * kernel_w
    return int(np.prod(shape)) if shape else 1


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform initialization (suited to ReLU networks)."""
    fan_in = _fan_in(shape)
    bound = math.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal initialization."""
    fan_in = _fan_in(shape)
    std = math.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zeros initialization (biases, batch-norm shift)."""
    del rng
    return np.zeros(shape, dtype=np.float64)


def ones(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-ones initialization (batch-norm scale)."""
    del rng
    return np.ones(shape, dtype=np.float64)
