"""2-D convolution layer implemented with im2col."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.functional import col2im, col2im_scratch, conv_output_size, im2col
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """2-D convolution over ``(N, C, H, W)`` inputs.

    The forward pass rearranges input patches with im2col so the convolution
    becomes a single matrix multiply; the backward pass uses the transposed
    multiply plus col2im for the input gradient.

    The column matrix, the padding scratch, the output map and every gradient
    temporary live in the layer's grow-once workspace and the matrix
    multiplies write through ``out=`` — no array allocated per step.  The
    stride-1 input gradient uses the correlation form (see
    :meth:`_grad_input_correlation`).  Returned arrays are views of workspace
    storage, valid until the next forward/backward on that arena.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size) <= 0:
            raise ValueError("channels and kernel_size must be positive")
        if stride <= 0 or padding < 0:
            raise ValueError("stride must be positive and padding non-negative")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.weight = self.register_parameter(
            "weight",
            Parameter(
                initializers.kaiming_normal(
                    (out_channels, in_channels, kernel_size, kernel_size), rng
                )
            ),
        )
        self.bias: Parameter | None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(initializers.zeros((out_channels,)))
            )
        else:
            self.bias = None
        self._cache_cols: np.ndarray | None = None
        self._cache_input_shape: tuple[int, int, int, int] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input of shape (N, {self.in_channels}, H, W), got {inputs.shape}"
            )
        n, _, h, w = inputs.shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)

        workspace = self._workspace
        padded = None
        if self.padding > 0:
            # Border entries stay zero from buffer creation; im2col only
            # rewrites the interior.
            padded = workspace.get(
                "fwd_padded", (n, self.in_channels, h + 2 * self.padding, w + 2 * self.padding)
            )
        cols = im2col(
            inputs,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
            out=workspace.get("cols", (n * out_h * out_w, weight_matrix.shape[1])),
            padded=padded,
        )
        flat = workspace.get("fwd_out2d", (n * out_h * out_w, self.out_channels))
        np.matmul(cols, weight_matrix.T, out=flat)
        if self.bias is not None:
            flat += self.bias.data
        # Zero-copy transposed view of the matmul result — consumers read it
        # in place.
        output = flat.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

        self._cache_cols = cols
        self._cache_input_shape = inputs.shape
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_cols is None or self._cache_input_shape is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        n, _, out_h, out_w = grad_output.shape
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)

        workspace = self._workspace
        staged = workspace.get("bwd_grad_nhwc", (n, out_h, out_w, self.out_channels))
        staged[...] = grad_output.transpose(0, 2, 3, 1)
        grad_matrix = staged.reshape(-1, self.out_channels)
        grad_weight = workspace.get("bwd_grad_weight", weight_matrix.shape)
        np.matmul(grad_matrix.T, self._cache_cols, out=grad_weight)
        self.weight.accumulate_grad(grad_weight.reshape(self.weight.data.shape))
        if self.bias is not None:
            grad_bias = workspace.get("bwd_grad_bias", (self.out_channels,))
            np.sum(grad_matrix, axis=0, out=grad_bias)
            self.bias.accumulate_grad(grad_bias)
        if self.input_grad_unused:
            return None
        if self.stride == 1 and self.padding < self.kernel_size:
            return self._grad_input_correlation(grad_output, workspace)
        grad_cols = workspace.get("bwd_grad_cols", self._cache_cols.shape)
        np.matmul(grad_matrix, weight_matrix, out=grad_cols)
        padded, stage = col2im_scratch(
            workspace,
            self._cache_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
        return col2im(
            grad_cols,
            self._cache_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
            padded=padded,
            stage=stage,
        )

    def _grad_input_correlation(
        self, grad_output: np.ndarray, workspace
    ) -> np.ndarray:
        """Stride-1 input gradient as a correlation with the flipped kernel.

        For unit stride, ``col2im(grad_cols)`` — one big matmul followed by
        a k*k scatter-add over strided slices — is mathematically a *full*
        correlation of the output gradient with the 180-degree-rotated
        kernel.  Computing it that way is one im2col gather plus one
        matmul with the exact same FLOP count, and no scatter-add at all,
        which is substantially faster (the scatter was ~25% of a ResNet
        step).  The matmul reduces over (out-channel, ky, kx) in one go
        where col2im reduces per offset, so the result agrees with the
        col2im oracle (``tests/nn/reference_layers.py``) to rounding error
        rather than bit-for-bit.
        """
        n, c, h, w = self._cache_input_shape
        kernel = self.kernel_size
        flip_padding = kernel - 1 - self.padding
        padded = None
        if flip_padding > 0:
            padded = workspace.get(
                "bwd_corr_padded",
                (n, self.out_channels, grad_output.shape[2] + 2 * flip_padding,
                 grad_output.shape[3] + 2 * flip_padding),
            )
        grad_cols = im2col(
            grad_output,
            kernel,
            kernel,
            1,
            flip_padding,
            out=workspace.get(
                "bwd_corr_cols", (n * h * w, self.out_channels * kernel * kernel)
            ),
            padded=padded,
        )
        # Flipped kernel, laid out to match the (o, ky, kx) column order.
        flipped = workspace.get(
            "bwd_corr_weight", (self.out_channels * kernel * kernel, c)
        )
        flipped[...] = (
            self.weight.data[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(
                flipped.shape
            )
        )
        grad_flat = workspace.get("bwd_corr_out", (n * h * w, c))
        np.matmul(grad_cols, flipped, out=grad_flat)
        return grad_flat.reshape(n, h, w, c).transpose(0, 3, 1, 2)
