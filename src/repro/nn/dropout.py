"""Inverted dropout layer."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["Dropout"]


class Dropout(Module):
    """Randomly zero activations during training with probability ``p``.

    Uses inverted dropout (kept activations are scaled by ``1/(1-p)``) so the
    forward pass is an identity at evaluation time.
    """

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if not self.training or self.p == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.p
        workspace = self._workspace
        draws = workspace.get("draws", inputs.shape)
        self._rng.random(out=draws)
        kept = workspace.get("kept", inputs.shape, dtype=bool)
        np.less(draws, keep, out=kept)
        mask = workspace.get("mask", inputs.shape)
        np.divide(kept, keep, out=mask)
        self._mask = mask
        output = workspace.get("output", inputs.shape)
        np.multiply(inputs, mask, out=output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if self._mask is None:
            return grad_output
        grad_input = self._workspace.get("grad_input", grad_output.shape)
        np.multiply(grad_output, self._mask, out=grad_input)
        return grad_input
