"""Stateless numeric primitives shared by the layers.

The convolution layers use the classic im2col/col2im transformation so the
inner loop is one matrix multiply.  ``im2col`` is one ``np.take`` gather
through a cached per-image patch index; both transforms accept caller-supplied
destination and padding-scratch arrays so a workspace keeps them allocation-free.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "im2col",
    "col2im",
    "col2im_scratch",
    "conv_output_size",
    "softmax",
    "log_softmax",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


@functools.lru_cache
def _patch_index(c: int, height: int, width: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Read-only flat offsets into one ``(c, height, width)`` image of its im2col
    entries, in ``(out_h, out_w, c, kh, kw)`` order; shared by every call."""
    grid = np.arange(c * height * width).reshape(c, height, width)
    windows = sliding_window_view(grid, (kh, kw), axis=(1, 2))
    index = windows[:, ::stride, ::stride].transpose(1, 2, 0, 3, 4).ravel()
    index.setflags(write=False)
    return index


def im2col(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: np.ndarray | None = None,
    padded: np.ndarray | None = None,
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    images:
        Array of shape ``(N, C, H, W)``.
    out:
        Optional C-contiguous destination of shape ``(N * out_h * out_w,
        C * kernel_h * kernel_w)`` (a workspace buffer); allocated if omitted.
    padded:
        Optional padding scratch of shape ``(N, C, H + 2p, W + 2p)`` whose
        *border entries must already be zero* — only the interior is written
        here, which is what lets a workspace reuse it without re-clearing.
        Ignored when ``padding == 0`` (the gather then reads ``images``
        directly, skipping the padded copy entirely).

    Returns
    -------
    Array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``.
    """
    n, c, h, w = images.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    if padding > 0:
        if padded is None:
            padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=images.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = images
        source = padded
    else:
        source = images

    if out is None:
        out = np.empty((n * out_h * out_w, c * kernel_h * kernel_w), dtype=images.dtype)
    elif not out.flags.c_contiguous:
        raise ValueError("im2col needs a C-contiguous out= buffer")
    index = _patch_index(c, *source.shape[2:], kernel_h, kernel_w, stride)
    # The offsets are in range; mode="raise" (the default) would buffer ``out``.
    np.take(source.reshape(n, -1), index, axis=1, out=out.reshape(n, -1), mode="clip")
    return out


def col2im(
    cols: np.ndarray,
    image_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    padded: np.ndarray | None = None,
    stage: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into image space.

    ``padded`` optionally supplies the ``(N, C, H + 2p, W + 2p)``
    accumulation scratch (it is cleared here before accumulating), so a
    reused workspace buffer replaces the per-call ``np.zeros`` — including
    the ``padding == 0`` case, where the scratch doubles as the result.
    With ``padding > 0`` the returned array is the interior *view* of the
    scratch, valid until the next call that reuses it.

    ``stage`` optionally supplies a ``(N, C, kernel_h, kernel_w, out_h,
    out_w)`` staging buffer: the columns are transposed into it with one
    contiguous copy so every scatter-add offset then reads sequential
    memory — measurably faster than accumulating straight from the
    six-way-strided column view, and bit-identical (each output element
    still receives the same addends in the same order).
    """
    n, c, h, w = image_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)
    if stage is not None:
        stage[...] = cols
        cols = stage
    if padded is None:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    else:
        padded[...] = 0.0
    for y in range(kernel_h):
        y_max = y + stride * out_h
        for x in range(kernel_w):
            x_max = x + stride * out_w
            padded[:, :, y:y_max:stride, x:x_max:stride] += cols[:, :, y, x, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def col2im_scratch(
    workspace,
    image_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(padded, stage)`` workspace buffers a :func:`col2im` call needs.

    Shared by every layer that scatter-adds gradients back into image space
    (convolution and the pooling layers), so the scratch shapes and tags
    cannot drift between them.
    """
    n, c, h, w = image_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded = workspace.get(
        "bwd_padded", (n, c, h + 2 * padding, w + 2 * padding)
    )
    stage = workspace.get(
        "bwd_stage", (n, c, kernel_h, kernel_w, out_h, out_w)
    )
    return padded, stage


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Convert integer labels of shape ``(N,)`` to one-hot ``(N, num_classes)``.

    ``dtype`` selects the encoding's element type (default ``float64`` for
    backwards compatibility); callers working in ``float32`` pass their own
    dtype so the loss path does not silently upcast.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for the requested number of classes")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
