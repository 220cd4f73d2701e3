"""Batch-normalization layers.

Running mean/variance are stored as *buffers* (non-trainable state); the
parameter server propagates them alongside the weights so the evaluation
model sees sensible statistics regardless of which worker computed the most
recent update.

The layers run a fused, allocation-free kernel: the centered input is
materialized once into a reused workspace buffer, the variance and backward
statistics are single-pass ``einsum`` contractions (no squared or product
temporaries), and the scale/shift is folded into a per-channel ``gamma/std``
multiplier.  The fused kernel is mathematically identical to the textbook
formula kept as the test oracle (``tests/nn/reference_layers.py``) but
associates the floating-point operations differently, so the two agree to
rounding error (~1e-15 relative in float64) rather than bit-for-bit — the
documented tolerance pinned by ``tests/nn/test_workspace.py``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["BatchNorm1d", "BatchNorm2d"]


class _BatchNormBase(Module):
    """Shared implementation for 1-D and 2-D batch normalization."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = self.register_parameter("weight", Parameter(np.ones(num_features)))
        self.beta = self.register_parameter("bias", Parameter(np.zeros(num_features)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # The per-shape layers reduce/broadcast over different axes.
    _reduce_axes: tuple[int, ...] = (0,)

    def _reshape_stats(self, array: np.ndarray) -> np.ndarray:
        return array

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Fused forward: centered once, variance without a squared temporary,
        scale and shift folded into two passes over the data.

        The cache keeps ``(centered, inv_std)`` instead of a materialized
        ``normalized`` tensor — backward re-derives what it needs per
        channel, saving a full-size buffer and pass.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        self._check_shape(inputs)
        workspace = self._workspace
        centered = workspace.get("centered", inputs.shape)
        count = inputs.size // self.num_features
        if self.training:
            mean = inputs.mean(axis=self._reduce_axes)
            np.subtract(inputs, self._reshape_stats(mean), out=centered)
            # Single-pass sum of squares straight off the centered buffer —
            # no squared temporary (inputs.var() would allocate two).
            var = self._sum_of_squares(centered) / count
            self._update_running_stats(inputs, mean, var)
        else:
            mean = self._buffers["running_mean"]
            var = self._buffers["running_var"]
            np.subtract(inputs, self._reshape_stats(mean), out=centered)

        inv_std = 1.0 / np.sqrt(self._reshape_stats(var) + self.eps)
        # Folded scale-shift: one multiply by gamma/std, one add of beta.
        scale = self._reshape_stats(self.gamma.data) * inv_std
        output = workspace.get("output", inputs.shape)
        np.multiply(centered, scale, out=output)
        output += self._reshape_stats(self.beta.data)
        self._cache = (centered, inv_std, inputs)
        return output

    def _update_running_stats(
        self, inputs: np.ndarray, mean: np.ndarray, var: np.ndarray
    ) -> None:
        count = inputs.size // self.num_features
        unbiased_var = var * count / max(count - 1, 1)
        running_mean = self._buffers["running_mean"]
        running_var = self._buffers["running_var"]
        running_mean[...] = (1 - self.momentum) * running_mean + self.momentum * mean
        running_var[...] = (1 - self.momentum) * running_var + self.momentum * unbiased_var

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Fused backward, derived from the textbook formula by pushing the
        per-element reductions down to per-channel scalars.

        With ``n̂ = ĉ·inv_std`` and ``gn = g·γ``, the textbook input
        gradient ``(gn - Σgn/m - n̂·Σ(gn·n̂)/m)·inv_std`` becomes

            scale·(g - Σg/m) - ĉ·(scale·inv_std²·Σ(g·ĉ)/m),   scale = γ·inv_std

        so only two full-size passes write memory and both reductions are
        single-pass contractions (no grad_normalized temporary at all).
        In eval mode the normalization statistics are constants.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        centered, inv_std, inputs = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float64)
        workspace = self._workspace
        inv_std_flat = inv_std.reshape(self.num_features)
        grad_centered_sum = self._correlate(grad_output, centered)
        self.gamma.accumulate_grad(grad_centered_sum * inv_std_flat)
        sum_grad = grad_output.sum(axis=self._reduce_axes)
        self.beta.accumulate_grad(sum_grad)

        scale = self._reshape_stats(self.gamma.data) * inv_std
        grad_input = workspace.get("bwd_grad_input", grad_output.shape)
        if not self.training:
            np.multiply(grad_output, scale, out=grad_input)
            return grad_input

        count = inputs.size // self.num_features
        np.subtract(grad_output, self._reshape_stats(sum_grad / count), out=grad_input)
        grad_input *= scale
        coefficient = scale * inv_std * inv_std * self._reshape_stats(
            grad_centered_sum / count
        )
        scratch = workspace.get("bwd_scratch", grad_output.shape)
        np.multiply(centered, coefficient, out=scratch)
        grad_input -= scratch
        return grad_input

    def _check_shape(self, inputs: np.ndarray) -> None:
        raise NotImplementedError

    def _sum_of_squares(self, array: np.ndarray) -> np.ndarray:
        """Per-channel ``Σ array²`` in one pass (no squared temporary)."""
        raise NotImplementedError

    def _correlate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-channel ``Σ a·b`` in one pass (no product temporary)."""
        raise NotImplementedError


class BatchNorm1d(_BatchNormBase):
    """Batch normalization over ``(N, C)`` feature matrices."""

    _reduce_axes = (0,)

    def _check_shape(self, inputs: np.ndarray) -> None:
        if inputs.ndim != 2 or inputs.shape[1] != self.num_features:
            raise ValueError(
                f"expected input of shape (N, {self.num_features}), got {inputs.shape}"
            )

    def _sum_of_squares(self, array: np.ndarray) -> np.ndarray:
        return np.einsum("nc,nc->c", array, array)

    def _correlate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("nc,nc->c", a, b)


class BatchNorm2d(_BatchNormBase):
    """Batch normalization over ``(N, C, H, W)`` images (per-channel stats)."""

    _reduce_axes = (0, 2, 3)

    def _check_shape(self, inputs: np.ndarray) -> None:
        if inputs.ndim != 4 or inputs.shape[1] != self.num_features:
            raise ValueError(
                f"expected input of shape (N, {self.num_features}, H, W), got {inputs.shape}"
            )

    def _reshape_stats(self, array: np.ndarray) -> np.ndarray:
        return np.asarray(array).reshape(1, self.num_features, 1, 1)

    def _sum_of_squares(self, array: np.ndarray) -> np.ndarray:
        return np.einsum("nchw,nchw->c", array, array)

    def _correlate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("nchw,nchw->c", a, b)
