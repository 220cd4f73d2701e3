"""Spatial pooling layers.

The im2col column matrices, the col2im padding scratch and the
output/gradient maps come from each layer's grow-once workspace.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, col2im_scratch, conv_output_size, im2col
from repro.nn.module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


def _pool_cols(layer, inputs: np.ndarray) -> np.ndarray:
    """The pooling column matrix, drawn from the layer's workspace."""
    n, c, h, w = inputs.shape
    out_h = conv_output_size(h, layer.kernel_size, layer.stride, layer.padding)
    out_w = conv_output_size(w, layer.kernel_size, layer.stride, layer.padding)
    window = layer.kernel_size * layer.kernel_size
    workspace = layer._workspace
    padded = None
    if layer.padding > 0:
        padded = workspace.get(
            "fwd_padded", (n, c, h + 2 * layer.padding, w + 2 * layer.padding)
        )
    return im2col(
        inputs,
        layer.kernel_size,
        layer.kernel_size,
        layer.stride,
        layer.padding,
        out=workspace.get("cols", (n * out_h * out_w, c * window)),
        padded=padded,
    )


class MaxPool2d(Module):
    """Max pooling over non-overlapping or strided windows."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        self.padding = int(padding)
        self._cache_argmax: np.ndarray | None = None
        self._cache_input_shape: tuple[int, int, int, int] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        n, c, h, w = inputs.shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        window = self.kernel_size * self.kernel_size

        workspace = self._workspace
        cols = _pool_cols(self, inputs).reshape(-1, c, window)
        argmax = workspace.get("argmax", (n * out_h * out_w, c), dtype=np.intp)
        np.argmax(cols, axis=2, out=argmax)
        flat = workspace.get("fwd_flat", (n * out_h * out_w, c))
        # max(out=) writes the pooled values with no temporary; argmax
        # (needed for backward routing) selects the same elements.
        np.max(cols, axis=2, out=flat)
        output = flat.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

        self._cache_argmax = argmax
        self._cache_input_shape = inputs.shape
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_argmax is None or self._cache_input_shape is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        n, c, out_h, out_w = grad_output.shape
        window = self.kernel_size * self.kernel_size

        workspace = self._workspace
        grad_cols = workspace.get(
            "bwd_grad_cols", (n * out_h * out_w, c, window), zero=True
        )
        staged = workspace.get("bwd_grad_nhwc", (n, out_h, out_w, c))
        staged[...] = grad_output.transpose(0, 2, 3, 1)
        grad_flat = staged.reshape(-1, c)
        padded, stage = col2im_scratch(
            workspace,
            self._cache_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
        np.put_along_axis(grad_cols, self._cache_argmax[..., None], grad_flat[..., None], axis=2)
        return col2im(
            grad_cols.reshape(n * out_h * out_w, c * window),
            self._cache_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
            padded=padded,
            stage=stage,
        )


class AvgPool2d(Module):
    """Average pooling over strided windows."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        self.padding = int(padding)
        self._cache_input_shape: tuple[int, int, int, int] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        n, c, h, w = inputs.shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        window = self.kernel_size * self.kernel_size

        cols = _pool_cols(self, inputs).reshape(-1, c, window)
        flat = self._workspace.get("fwd_flat", (n * out_h * out_w, c))
        np.mean(cols, axis=2, out=flat)
        self._cache_input_shape = inputs.shape
        return flat.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_input_shape is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        n, c, out_h, out_w = grad_output.shape
        window = self.kernel_size * self.kernel_size

        workspace = self._workspace
        staged = workspace.get("bwd_grad_nhwc", (n, out_h, out_w, c))
        np.divide(grad_output.transpose(0, 2, 3, 1), window, out=staged)
        grad_flat = staged.reshape(-1, c)
        grad_cols = workspace.get("bwd_grad_cols", (n * out_h * out_w, c, window))
        grad_cols[...] = grad_flat[..., None]
        padded, stage = col2im_scratch(
            workspace,
            self._cache_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
        return col2im(
            grad_cols.reshape(n * out_h * out_w, c * window),
            self._cache_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
            padded=padded,
            stage=stage,
        )


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, producing ``(N, C)`` features."""

    def __init__(self) -> None:
        super().__init__()
        self._cache_input_shape: tuple[int, int, int, int] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) input, got shape {inputs.shape}")
        self._cache_input_shape = inputs.shape
        output = self._workspace.get("output", inputs.shape[:2])
        np.mean(inputs, axis=(2, 3), out=output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_input_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._cache_input_shape
        grad_output = np.asarray(grad_output, dtype=np.float64).reshape(n, c, 1, 1)
        grad_input = self._workspace.get("grad_input", self._cache_input_shape)
        np.divide(grad_output, h * w, out=grad_input)
        return grad_input
