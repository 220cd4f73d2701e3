"""Loss functions.

A loss exposes ``forward(predictions, targets) -> float`` and ``backward()``
returning the gradient with respect to the predictions, so that the training
loop is ``loss.forward(...); grad = loss.backward(); model.backward(grad)``.

Losses are not :class:`~repro.nn.module.Module` instances, but they follow
the same workspace convention: each loss owns a buffer arena (shared with
its twins in replicas that step in turn) and the forward/backward
computations reuse it with ``out=``-style numpy calls, so the gradient
``backward()`` returns is valid until the next ``backward()`` on that arena.
"""

from __future__ import annotations

import numpy as np

from repro.nn.workspace import Workspace

__all__ = ["SoftmaxCrossEntropy"]


class SoftmaxCrossEntropy:
    """Softmax followed by cross-entropy against integer class labels."""

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None
        self._workspace = Workspace()

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        """Return the mean cross-entropy loss over the batch."""
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D (N, classes), got shape {logits.shape}")
        if labels.shape != (logits.shape[0],):
            raise ValueError(
                f"labels must have shape ({logits.shape[0]},), got {labels.shape}"
            )
        # log_softmax with every temporary reused: shifted logits,
        # exponentials and the log-sum all live in workspace buffers.
        log_probs = self._workspace.get("log_probs", logits.shape)
        np.subtract(logits, np.max(logits, axis=1, keepdims=True), out=log_probs)
        exps = self._workspace.get("exps", logits.shape)
        np.exp(log_probs, out=exps)
        norm = exps.sum(axis=1, keepdims=True)
        np.log(norm, out=norm)
        log_probs -= norm
        losses = -log_probs[np.arange(labels.shape[0]), labels]
        self._cache = (logits, labels)
        return float(losses.mean())

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss with respect to the logits."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        logits, labels = self._cache
        # Fused form of (softmax - one_hot) / N: subtracting 1.0 at the
        # label positions is bit-identical to subtracting a one-hot matrix.
        grad = self._workspace.get("grad", logits.shape)
        np.subtract(logits, np.max(logits, axis=1, keepdims=True), out=grad)
        np.exp(grad, out=grad)
        grad /= grad.sum(axis=1, keepdims=True)
        grad[np.arange(labels.shape[0]), labels] -= 1.0
        grad /= logits.shape[0]
        return grad

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)
