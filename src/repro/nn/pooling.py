"""Spatial pooling layers.

The im2col column matrices, the col2im padding scratch and the
output/gradient maps come from each layer's grow-once workspace.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, col2im_scratch, conv_output_size, im2col
from repro.nn.module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


class _WindowPool2d(Module):
    """The geometry and the im2col/col2im plumbing of the windowed pools."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        self.padding = int(padding)
        self._cache_input_shape: tuple[int, int, int, int] | None = None

    def _windows(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """``(cols, flat, nhwc)``: the input's windows as ``(rows, c, window)``
        columns, the ``(rows, c)`` output buffer and the output's NHWC shape."""
        n, c, h, w = self._cache_input_shape = inputs.shape
        k, stride, padding = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(h, k, stride, padding)
        out_w = conv_output_size(w, k, stride, padding)
        workspace = self._workspace
        padded = None
        if padding > 0:
            padded = workspace.get("fwd_padded", (n, c, h + 2 * padding, w + 2 * padding))
        cols = im2col(
            inputs, k, k, stride, padding, padded=padded,
            out=workspace.get("cols", (n * out_h * out_w, c * k * k)),
        )
        flat = workspace.get("fwd_flat", (n * out_h * out_w, c))
        return cols.reshape(-1, c, k * k), flat, (n, out_h, out_w, c)

    def _col2im(self, grad_cols: np.ndarray) -> np.ndarray:
        """Scatter-add ``(rows, c, window)`` column gradients into the input."""
        k, stride, padding = self.kernel_size, self.stride, self.padding
        padded, stage = col2im_scratch(
            self._workspace, self._cache_input_shape, k, k, stride, padding
        )
        return col2im(
            grad_cols.reshape(grad_cols.shape[0], -1), self._cache_input_shape, k, k,
            stride, padding, padded=padded, stage=stage,
        )

    def _staged(self, grad_output: np.ndarray) -> np.ndarray:
        """The workspace buffer for ``grad_output`` in NHWC order."""
        n, c, out_h, out_w = grad_output.shape
        return self._workspace.get("bwd_grad_nhwc", (n, out_h, out_w, c))


class MaxPool2d(_WindowPool2d):
    """Max pooling over non-overlapping or strided windows."""

    _cache_argmax: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        cols, flat, nhwc = self._windows(inputs)
        argmax = self._workspace.get("argmax", flat.shape, dtype=np.intp)
        np.argmax(cols, axis=2, out=argmax)
        # max(out=) writes the pooled values with no temporary; argmax
        # (needed for backward routing) selects the same elements.
        np.max(cols, axis=2, out=flat)
        self._cache_argmax = argmax
        return flat.reshape(nhwc).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_argmax is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        staged = self._staged(grad_output)
        staged[...] = grad_output.transpose(0, 2, 3, 1)
        grad_flat = staged.reshape(-1, staged.shape[-1])
        grad_cols = self._workspace.get(
            "bwd_grad_cols", (*grad_flat.shape, self.kernel_size**2), zero=True
        )
        np.put_along_axis(grad_cols, self._cache_argmax[..., None], grad_flat[..., None], axis=2)
        return self._col2im(grad_cols)


class AvgPool2d(_WindowPool2d):
    """Average pooling over strided windows."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        cols, flat, nhwc = self._windows(inputs)
        np.mean(cols, axis=2, out=flat)
        return flat.reshape(nhwc).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_input_shape is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        window = self.kernel_size * self.kernel_size
        staged = self._staged(grad_output)
        np.divide(grad_output.transpose(0, 2, 3, 1), window, out=staged)
        grad_flat = staged.reshape(-1, staged.shape[-1])
        grad_cols = self._workspace.get("bwd_grad_cols", (*grad_flat.shape, window))
        grad_cols[...] = grad_flat[..., None]
        return self._col2im(grad_cols)


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
