"""Reference ``nn`` kernels: the oracle the production layers are tested against.

These are the plain, allocating forward/backward bodies the library carried
next to its workspace kernels until the two paths were merged — textbook
numpy expressions returning fresh arrays, moved here verbatim.  Each oracle
subclasses the production layer (same constructor, parameters and buffers,
hence identical initial weights from an identical ``rng``) and overrides only
``forward``/``backward``.  :func:`as_reference` converts a whole built model.

Numerical contract pinned by ``tests/nn/test_workspace.py``: production and
oracle agree bit-for-bit per kernel, except the fused BatchNorm and the
stride-1 convolution input gradient, which re-associate the arithmetic and
agree to rounding error.
"""

import numpy as np

from repro import nn
from repro.nn.functional import col2im, conv_output_size, im2col, log_softmax, one_hot, softmax


class ReLU(nn.ReLU):
    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        self._mask = inputs > 0
        return inputs * self._mask

    def backward(self, grad_output):
        grad_output = np.asarray(grad_output, dtype=np.float64)
        return grad_output * self._mask


class LeakyReLU(nn.LeakyReLU):
    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        self._mask = inputs > 0
        return np.where(self._mask, inputs, inputs * self.negative_slope)

    def backward(self, grad_output):
        grad_output = np.asarray(grad_output, dtype=np.float64)
        return np.where(self._mask, grad_output, grad_output * self.negative_slope)


class Sigmoid(nn.Sigmoid):
    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        self._output = 1.0 / (1.0 + np.exp(-inputs))
        return self._output

    def backward(self, grad_output):
        grad_output = np.asarray(grad_output, dtype=np.float64)
        return grad_output * self._output * (1.0 - self._output)


class Tanh(nn.Tanh):
    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        self._output = np.tanh(inputs)
        return self._output

    def backward(self, grad_output):
        grad_output = np.asarray(grad_output, dtype=np.float64)
        return grad_output * (1.0 - self._output**2)


class Linear(nn.Linear):
    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        self._cache_input = inputs
        output = inputs @ self.weight.data.T
        if self.bias is not None:
            output = output + self.bias.data
        return output

    def backward(self, grad_output):
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.weight.accumulate_grad(grad_output.T @ self._cache_input)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=0))
        return grad_output @ self.weight.data


class Conv2d(nn.Conv2d):
    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        n, _, h, w = inputs.shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        cols = im2col(
            inputs, self.kernel_size, self.kernel_size, self.stride, self.padding
        )
        output = cols @ weight_matrix.T
        if self.bias is not None:
            output = output + self.bias.data
        output = output.reshape(n, out_h, out_w, self.out_channels).transpose(
            0, 3, 1, 2
        )
        self._cache_cols = cols
        self._cache_input_shape = inputs.shape
        return output

    def backward(self, grad_output):
        grad_output = np.asarray(grad_output, dtype=np.float64)
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        grad_weight = grad_matrix.T @ self._cache_cols
        self.weight.accumulate_grad(grad_weight.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.accumulate_grad(grad_matrix.sum(axis=0))
        grad_cols = grad_matrix @ weight_matrix
        return col2im(
            grad_cols,
            self._cache_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )


def _pool_cols(layer, inputs):
    return im2col(
        inputs, layer.kernel_size, layer.kernel_size, layer.stride, layer.padding
    )


class MaxPool2d(nn.MaxPool2d):
    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        n, c, h, w = inputs.shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        window = self.kernel_size * self.kernel_size
        cols = _pool_cols(self, inputs).reshape(-1, c, window)
        argmax = cols.argmax(axis=2)
        output = np.take_along_axis(cols, argmax[..., None], axis=2).squeeze(2)
        output = output.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        self._cache_argmax = argmax
        self._cache_input_shape = inputs.shape
        return output

    def backward(self, grad_output):
        grad_output = np.asarray(grad_output, dtype=np.float64)
        n, c, out_h, out_w = grad_output.shape
        window = self.kernel_size * self.kernel_size
        grad_cols = np.zeros((n * out_h * out_w, c, window), dtype=np.float64)
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, c)
        np.put_along_axis(grad_cols, self._cache_argmax[..., None], grad_flat[..., None], axis=2)
        return col2im(
            grad_cols.reshape(n * out_h * out_w, c * window),
            self._cache_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )


class AvgPool2d(nn.AvgPool2d):
    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        n, c, h, w = inputs.shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        window = self.kernel_size * self.kernel_size
        cols = _pool_cols(self, inputs).reshape(-1, c, window)
        output = cols.mean(axis=2).reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        self._cache_input_shape = inputs.shape
        return output

    def backward(self, grad_output):
        grad_output = np.asarray(grad_output, dtype=np.float64)
        n, c, out_h, out_w = grad_output.shape
        window = self.kernel_size * self.kernel_size
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, c) / window
        grad_cols = np.repeat(grad_flat[..., None], window, axis=2)
        return col2im(
            grad_cols.reshape(n * out_h * out_w, c * window),
            self._cache_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )


class GlobalAvgPool2d(nn.GlobalAvgPool2d):
    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        self._cache_input_shape = inputs.shape
        return inputs.mean(axis=(2, 3))

    def backward(self, grad_output):
        n, c, h, w = self._cache_input_shape
        grad_output = np.asarray(grad_output, dtype=np.float64).reshape(n, c, 1, 1)
        return np.broadcast_to(grad_output / (h * w), self._cache_input_shape).copy()


class _BatchNorm:
    """Textbook batch norm: caches the *normalized* input, not the centered one."""

    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        if self.training:
            mean = inputs.mean(axis=self._reduce_axes)
            var = inputs.var(axis=self._reduce_axes)
            self._update_running_stats(inputs, mean, var)
        else:
            mean = self._buffers["running_mean"]
            var = self._buffers["running_var"]

        inv_std = 1.0 / np.sqrt(self._reshape_stats(var) + self.eps)
        normalized = (inputs - self._reshape_stats(mean)) * inv_std
        output = self._reshape_stats(self.gamma.data) * normalized + self._reshape_stats(
            self.beta.data
        )
        self._cache = (normalized, inv_std, inputs)
        return output

    def backward(self, grad_output):
        normalized, inv_std, inputs = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.gamma.accumulate_grad((grad_output * normalized).sum(axis=self._reduce_axes))
        self.beta.accumulate_grad(grad_output.sum(axis=self._reduce_axes))

        if not self.training:
            # In eval mode the normalization statistics are constants.
            return grad_output * self._reshape_stats(self.gamma.data) * inv_std

        count = inputs.size // self.num_features
        grad_normalized = grad_output * self._reshape_stats(self.gamma.data)
        sum_grad = grad_normalized.sum(axis=self._reduce_axes)
        sum_grad_norm = (grad_normalized * normalized).sum(axis=self._reduce_axes)
        grad_input = (
            grad_normalized
            - self._reshape_stats(sum_grad) / count
            - normalized * self._reshape_stats(sum_grad_norm) / count
        ) * inv_std
        return grad_input


class BatchNorm1d(_BatchNorm, nn.BatchNorm1d):
    pass


class BatchNorm2d(_BatchNorm, nn.BatchNorm2d):
    pass


class Dropout(nn.Dropout):
    def forward(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        if not self.training or self.p == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.p
        self._mask = (self._rng.random(inputs.shape) < keep) / keep
        return inputs * self._mask

    def backward(self, grad_output):
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class Residual(nn.Residual):
    def forward(self, inputs):
        return self.body.forward(inputs) + self.shortcut.forward(inputs)

    def backward(self, grad_output):
        return self.body.backward(grad_output) + self.shortcut.backward(grad_output)


class SoftmaxCrossEntropy(nn.SoftmaxCrossEntropy):
    def forward(self, logits, labels):
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        log_probs = log_softmax(logits, axis=1)
        losses = -log_probs[np.arange(labels.shape[0]), labels]
        self._cache = (logits, labels)
        return float(losses.mean())

    def backward(self):
        logits, labels = self._cache
        probabilities = softmax(logits, axis=1)
        encoded = one_hot(labels, logits.shape[1], dtype=probabilities.dtype)
        return (probabilities - encoded) / logits.shape[0]


_ORACLES = {
    oracle.__bases__[-1]: oracle
    for oracle in (
        ReLU, LeakyReLU, Sigmoid, Tanh, Linear, Conv2d, MaxPool2d, AvgPool2d,
        GlobalAvgPool2d, BatchNorm1d, BatchNorm2d, Dropout, Residual,
    )
}


def as_reference(model):
    """Switch every layer of a built ``model`` to its oracle kernels, in place.

    Containers without arithmetic (``Sequential``, ``Identity``, ``Flatten``)
    have a single implementation and are left as they are.
    """
    for _, module in model.named_modules():
        module.__class__ = _ORACLES.get(type(module), type(module))
    return model
