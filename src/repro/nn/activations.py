"""Element-wise activation layers.

The mask/output/gradient arrays live in the layer's grow-once
:class:`~repro.nn.workspace.Workspace` and every elementwise op writes
through ``out=``: no array is allocated per step (see the workspace module
for what that leaves).  Returned arrays are views of that arena.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh"]


class ReLU(Module):
    """Rectified linear unit: ``max(x, 0)``."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        mask = self._workspace.get("mask", inputs.shape, dtype=bool)
        np.greater(inputs, 0, out=mask)
        self._mask = mask
        output = self._workspace.get("output", inputs.shape)
        np.multiply(inputs, mask, out=output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        grad_input = self._workspace.get("grad_input", grad_output.shape)
        np.multiply(grad_output, self._mask, out=grad_input)
        return grad_input


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ValueError("negative_slope must be >= 0")
        self.negative_slope = float(negative_slope)
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        mask = self._workspace.get("mask", inputs.shape, dtype=bool)
        np.greater(inputs, 0, out=mask)
        self._mask = mask
        output = self._workspace.get("output", inputs.shape)
        np.multiply(inputs, self.negative_slope, out=output)
        np.copyto(output, inputs, where=mask)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        grad_input = self._workspace.get("grad_input", grad_output.shape)
        np.multiply(grad_output, self.negative_slope, out=grad_input)
        np.copyto(grad_input, grad_output, where=self._mask)
        return grad_input


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        output = self._workspace.get("output", inputs.shape)
        np.negative(inputs, out=output)
        np.exp(output, out=output)
        output += 1.0
        np.divide(1.0, output, out=output)
        self._output = output
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        grad_input = self._workspace.get("grad_input", grad_output.shape)
        np.multiply(grad_output, self._output, out=grad_input)
        scratch = self._workspace.get("scratch", grad_output.shape)
        np.subtract(1.0, self._output, out=scratch)
        grad_input *= scratch
        return grad_input


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        output = self._workspace.get("output", inputs.shape)
        np.tanh(inputs, out=output)
        self._output = output
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        scratch = self._workspace.get("scratch", grad_output.shape)
        np.multiply(self._output, self._output, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        grad_input = self._workspace.get("grad_input", grad_output.shape)
        np.multiply(grad_output, scratch, out=grad_input)
        return grad_input
