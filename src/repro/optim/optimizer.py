"""Optimizer base class operating on state dictionaries.

Unlike framework optimizers that are bound to a model's parameter objects,
these optimizers update a *state dictionary* ``{name: ndarray}`` in place
given a gradient dictionary with matching keys.  That is exactly the
operation the parameter server performs when a worker pushes an update, so
the same optimizer code serves both the single-machine training loop and the
server-side update rule.

Stores that pack their parameters into contiguous flat buffers
(:mod:`repro.ps.flatbuffer`) call :meth:`Optimizer.step` 's vectorized
sibling :meth:`Optimizer.step_flat` instead: one fused update over each
contiguous gradient run rather than a Python loop over named tensors.  The
two paths are numerically identical — the update rules are elementwise, so
operating on a concatenation of the parameters produces bit-for-bit the
same values as operating on them one by one.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping, Sequence

import numpy as np

__all__ = ["Optimizer"]


class Optimizer:
    """Base class: applies gradient dictionaries to weight dictionaries."""

    #: Whether :meth:`step_flat` takes sparse runs (``FlatUpdate.runs``) in
    #: this configuration; where it does not, sparse pushes are densified.
    sparse_runs = False

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        self._base_learning_rate = float(learning_rate)
        self._learning_rate = float(learning_rate)
        self._step_count = 0

    @property
    def learning_rate(self) -> float:
        """Learning rate that will be used by the next :meth:`step` call."""
        return self._learning_rate

    @learning_rate.setter
    def learning_rate(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"learning_rate must be > 0, got {value}")
        self._learning_rate = float(value)

    @property
    def base_learning_rate(self) -> float:
        """Learning rate the optimizer was constructed with."""
        return self._base_learning_rate

    @property
    def step_count(self) -> int:
        """Number of :meth:`step` calls performed so far."""
        return self._step_count

    def step(
        self,
        weights: MutableMapping[str, np.ndarray],
        gradients: Mapping[str, np.ndarray],
        scale: float = 1.0,
    ) -> None:
        """Update ``weights`` in place using ``gradients``.

        ``scale`` multiplies the gradients before the update; the parameter
        server uses it to average gradients aggregated from several workers.
        """
        self._check_keys(weights, gradients)
        self._apply(weights, gradients, scale)
        self._step_count += 1

    def step_flat(self, updates: Sequence, scale: float = 1.0) -> None:
        """Apply one push as fused updates over packed flat segments.

        ``updates`` is a sequence of :class:`repro.ps.flatbuffer.FlatUpdate`
        objects (duck-typed: anything exposing ``key``, ``weights``,
        ``velocity_size``, ``layout`` and ``runs``), one per touched shard.
        Exactly one optimizer step: staleness handling and ``step_count``
        advance once regardless of how many shards the push touched.
        """
        self._apply_flat(updates, scale)
        self._step_count += 1

    def _apply(
        self,
        weights: MutableMapping[str, np.ndarray],
        gradients: Mapping[str, np.ndarray],
        scale: float,
    ) -> None:
        raise NotImplementedError

    def _apply_flat(self, updates: Sequence, scale: float) -> None:
        """Generic fallback: unpack the runs and reuse the dict path.

        Optimizers that can fuse (e.g. :class:`repro.optim.SGD`) override
        this; any other optimizer keeps working against flat stores through
        per-segment views, just without the fused speedup.
        """
        weights: dict[str, np.ndarray] = {}
        gradients: dict[str, np.ndarray] = {}
        for update in updates:
            by_lo = {segment.lo: segment for segment in update.layout}
            for lo, hi, grad in update.runs:
                offset = lo
                while offset < hi:
                    segment = by_lo[offset]
                    weights[segment.name] = update.weights[
                        segment.lo : segment.hi
                    ].reshape(segment.shape)
                    gradients[segment.name] = grad[
                        segment.lo - lo : segment.hi - lo
                    ].reshape(segment.shape)
                    offset = segment.hi
        self._apply(weights, gradients, scale)

    @staticmethod
    def _check_keys(
        weights: Mapping[str, np.ndarray], gradients: Mapping[str, np.ndarray]
    ) -> None:
        missing = set(gradients) - set(weights)
        if missing:
            raise KeyError(f"gradients refer to unknown weights: {sorted(missing)[:5]}")

    def state_dict(self) -> dict:
        """Serializable optimizer state (step count and learning rate)."""
        return {
            "step_count": self._step_count,
            "learning_rate": self._learning_rate,
            "base_learning_rate": self._base_learning_rate,
        }

    def load_state_dict(self, state: Mapping) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self._step_count = int(state["step_count"])
        self._learning_rate = float(state["learning_rate"])
        self._base_learning_rate = float(state.get("base_learning_rate", self._learning_rate))
