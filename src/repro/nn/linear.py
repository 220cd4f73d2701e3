"""Fully connected (dense) layer."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine transform ``y = x @ W.T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to add a learned bias term.
    rng:
        Generator used for weight initialization; a default generator is
        created when omitted (tests and experiments should pass one for
        reproducibility).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = self.register_parameter(
            "weight", Parameter(initializers.kaiming_uniform((out_features, in_features), rng))
        )
        self.bias: Parameter | None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(initializers.zeros((out_features,)))
            )
        else:
            self.bias = None
        self._cache_input: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (N, {self.in_features}), got {inputs.shape}"
            )
        self._cache_input = inputs
        output = self._workspace.get("output", (inputs.shape[0], self.out_features))
        np.matmul(inputs, self.weight.data.T, out=output)
        if self.bias is not None:
            output += self.bias.data
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        workspace = self._workspace
        grad_weight = workspace.get("grad_weight", self.weight.data.shape)
        np.matmul(grad_output.T, self._cache_input, out=grad_weight)
        self.weight.accumulate_grad(grad_weight)
        if self.bias is not None:
            grad_bias = workspace.get("grad_bias", (self.out_features,))
            np.sum(grad_output, axis=0, out=grad_bias)
            self.bias.accumulate_grad(grad_bias)
        if self.input_grad_unused:
            return None
        grad_input = workspace.get("grad_input", self._cache_input.shape)
        np.matmul(grad_output, self.weight.data, out=grad_input)
        return grad_input
