"""Module containers: sequential chains and residual blocks."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["Sequential", "Identity", "Residual"]


class Identity(Module):
    """Pass-through module (used as the default residual shortcut)."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return np.asarray(inputs, dtype=np.float64)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=np.float64)


class Sequential(Module):
    """Chain of modules applied in order.

    Children are addressable by integer index and are registered under their
    stringified index, so parameter names look like ``"3.weight"``.
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        layers = modules[0] if len(modules) == 1 and isinstance(modules[0], (list, tuple)) else modules
        for index, module in enumerate(layers):
            if not isinstance(module, Module):
                raise TypeError(f"Sequential expects Module instances, got {type(module)!r}")
            self.register_module(str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[str(index)]

    def __iter__(self):
        return iter(self._modules.values())

    def append(self, module: Module) -> "Sequential":
        """Add a module at the end of the chain."""
        self.register_module(str(len(self._modules)), module)
        return self

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for module in self._modules.values():
            output = module.forward(output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for module in reversed(self._modules.values()):
            grad = module.backward(grad)
            if grad is None:  # an entry layer marked ``input_grad_unused``
                break
        return grad


class Residual(Module):
    """Residual block: ``output = body(x) + shortcut(x)``.

    The gradient flows through both branches and is summed, matching the
    standard identity-mapping formulation used by CIFAR ResNets.
    """

    def __init__(self, body: Module, shortcut: Module | None = None) -> None:
        super().__init__()
        self.body = self.register_module("body", body)
        self.shortcut = self.register_module("shortcut", shortcut or Identity())

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        body_out = self.body.forward(inputs)
        shortcut_out = self.shortcut.forward(inputs)
        output = self._workspace.get("output", body_out.shape)
        np.add(body_out, shortcut_out, out=output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_body = self.body.backward(grad_output)
        grad_shortcut = self.shortcut.backward(grad_output)
        grad_input = self._workspace.get("grad_input", grad_body.shape)
        np.add(grad_body, grad_shortcut, out=grad_input)
        return grad_input

