"""Model cost estimation for the per-iteration time model.

The paper's Section V-C attributes the opposite throughput orderings of the
paradigms to the *ratio of computing time to communication time* per
iteration: FC-bearing networks (AlexNet) move many parameters but compute
little, pure CNNs (ResNets) compute a lot but move few parameters.  To make
that ratio emerge from first principles rather than be hard-coded, this
module walks a model's layer structure, propagates activation shapes and
counts the floating-point operations of a forward+backward pass as well as
the bytes of the parameter payload.  The time model
(:class:`repro.simulation.topology.TopologyTimeModel`) then combines the
FLOP count with a device profile and the payload with the worker's link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.activations import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.container import Identity, Residual, Sequential
from repro.nn.conv import Conv2d
from repro.nn.dropout import Dropout
from repro.nn.flatten import Flatten
from repro.nn.functional import conv_output_size
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.normalization import BatchNorm1d, BatchNorm2d
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d

__all__ = ["ModelCost", "estimate_model_cost"]

# Backward pass costs roughly twice the forward pass (gradient w.r.t. inputs
# and w.r.t. weights); 3x forward is the standard engineering estimate.
_BACKWARD_MULTIPLIER = 3.0
_BYTES_PER_PARAMETER = 4  # float32 on the wire, as in MXNet.


@dataclass(frozen=True)
class ModelCost:
    """Computation and communication cost of one model."""

    flops_per_sample: float
    num_parameters: int
    parameter_bytes: int

    def iteration_flops(self, batch_size: int) -> float:
        """Forward+backward FLOPs of one mini-batch."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        return self.flops_per_sample * batch_size

    @property
    def communication_ratio_hint(self) -> float:
        """Bytes moved per FLOP computed — large for FC-heavy models."""
        return self.parameter_bytes / max(self.flops_per_sample, 1.0)


def _forward_flops(module: Module, shape: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
    """FLOPs of one sample through ``module`` plus the output shape.

    ``shape`` excludes the batch dimension: ``(C, H, W)`` for images or
    ``(D,)`` for flat features.
    """
    if isinstance(module, Sequential):
        total = 0.0
        for child in module:
            flops, shape = _forward_flops(child, shape)
            total += flops
        return total, shape
    if isinstance(module, Residual):
        body_flops, body_shape = _forward_flops(module.body, shape)
        shortcut_flops, shortcut_shape = _forward_flops(module.shortcut, shape)
        if body_shape != shortcut_shape:
            raise ValueError(
                f"residual branches disagree on output shape: {body_shape} vs {shortcut_shape}"
            )
        add_flops = float(np.prod(body_shape))
        return body_flops + shortcut_flops + add_flops, body_shape
    if isinstance(module, Conv2d):
        channels, height, width = shape
        out_h = conv_output_size(height, module.kernel_size, module.stride, module.padding)
        out_w = conv_output_size(width, module.kernel_size, module.stride, module.padding)
        flops = (
            2.0
            * module.out_channels
            * out_h
            * out_w
            * channels
            * module.kernel_size
            * module.kernel_size
        )
        return flops, (module.out_channels, out_h, out_w)
    if isinstance(module, Linear):
        flops = 2.0 * module.in_features * module.out_features
        return flops, (module.out_features,)
    if isinstance(module, (MaxPool2d, AvgPool2d)):
        channels, height, width = shape
        out_h = conv_output_size(height, module.kernel_size, module.stride, module.padding)
        out_w = conv_output_size(width, module.kernel_size, module.stride, module.padding)
        flops = float(channels * out_h * out_w * module.kernel_size * module.kernel_size)
        return flops, (channels, out_h, out_w)
    if isinstance(module, GlobalAvgPool2d):
        channels, height, width = shape
        return float(channels * height * width), (channels,)
    if isinstance(module, Flatten):
        return 0.0, (int(np.prod(shape)),)
    if isinstance(module, (BatchNorm1d, BatchNorm2d)):
        return 4.0 * float(np.prod(shape)), shape
    if isinstance(module, (ReLU, LeakyReLU, Sigmoid, Tanh, Dropout)):
        return float(np.prod(shape)), shape
    if isinstance(module, Identity):
        return 0.0, shape
    # Unknown leaf modules contribute an element-wise pass as a conservative
    # default so custom layers do not break cost estimation.
    return float(np.prod(shape)), shape


def estimate_model_cost(model: Module, input_shape: tuple[int, ...]) -> ModelCost:
    """Estimate per-sample forward+backward FLOPs and the parameter payload.

    ``input_shape`` excludes the batch dimension, e.g. ``(3, 32, 32)``.
    """
    if not input_shape:
        raise ValueError("input_shape must not be empty")
    forward, _ = _forward_flops(model, tuple(int(dim) for dim in input_shape))
    num_parameters = model.num_parameters()
    return ModelCost(
        flops_per_sample=forward * _BACKWARD_MULTIPLIER,
        num_parameters=num_parameters,
        parameter_bytes=num_parameters * _BYTES_PER_PARAMETER,
    )
