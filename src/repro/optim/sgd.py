"""Stochastic gradient descent with momentum and weight decay.

:class:`SGD` is the parameter server's one optimizer.  It updates a *state
dictionary* ``{name: ndarray}`` in place given a gradient dictionary with
matching keys (:meth:`SGD.step`), which is what the server does when a
worker pushes an update.  Stores that pack their parameters into contiguous
flat buffers (:mod:`repro.ps.flatbuffer`) call its vectorized sibling
:meth:`SGD.step_flat` instead: one fused update over each contiguous
gradient run rather than a Python loop over named tensors.  The two paths
are numerically identical — the update rule is elementwise, so operating on
a concatenation of the parameters produces bit-for-bit the same values as
operating on them one by one.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping, Sequence

import numpy as np

__all__ = ["SGD"]


class SGD:
    """SGD with optional (Nesterov) momentum and L2 weight decay.

    This matches the update rule the paper uses (MXNet's SGD): for each
    parameter ``w`` with gradient ``g``:

    .. code-block:: text

        g = g + weight_decay * w
        v = momentum * v + g
        w = w - lr * v            (or w - lr * (g + momentum * v) for Nesterov)

    Against a flat store the same rule runs through :meth:`step_flat` as a
    handful of fused array ops per contiguous gradient run; a sparse run
    (:attr:`sparse_runs`) leaves out the passes a zero gradient makes
    no-ops.  The momentum
    velocity is then kept as one flat buffer per shard, with the per-name
    entries of ``self._velocity`` rebound to views into it — so
    :meth:`state_dict` still exports (and :meth:`load_state_dict` still
    accepts) the per-parameter arrays checkpoints have always carried.
    """

    def __init__(
        self,
        learning_rate: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self._base_learning_rate = float(learning_rate)
        self._learning_rate = float(learning_rate)
        self._step_count = 0
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = bool(nesterov)
        self._velocity: dict[str, np.ndarray] = {}
        # Per-shard flat velocity buffers, keyed by the shard's state key;
        # the per-name entries of _velocity alias slices of these.
        self._flat_velocity: dict[str, np.ndarray] = {}
        # Pooled per-shard chunk temporaries for the fused path, so
        # steady-state steps perform zero allocations.
        self._chunk_scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

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

    @property
    def sparse_runs(self) -> bool:
        # The decay term is dense whatever the gradient is, and Nesterov's
        # look-ahead has not been shown equal: those pushes are densified.
        return not (self.weight_decay or self.nesterov)

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
        missing = set(gradients) - set(weights)
        if missing:
            raise KeyError(f"gradients refer to unknown weights: {sorted(missing)[:5]}")
        self._apply(weights, gradients, scale)
        self._step_count += 1

    def step_flat(self, updates: Sequence, scale: float = 1.0) -> None:
        """Apply one push as fused updates over packed flat segments.

        ``updates`` is a sequence of :class:`repro.ps.flatbuffer.FlatUpdate`
        objects (duck-typed: anything exposing ``key``, ``weights``,
        ``velocity_size``, ``layout`` and ``runs``), one per touched shard.
        Exactly one optimizer step: ``step_count`` advances once regardless
        of how many shards the push touched.
        """
        self._apply_flat(updates, scale)
        self._step_count += 1

    def _apply(
        self,
        weights: MutableMapping[str, np.ndarray],
        gradients: Mapping[str, np.ndarray],
        scale: float,
    ) -> None:
        for name, grad in gradients.items():
            weight = weights[name]
            # Work in the weights' own dtype so a float32 store stays float32
            # end to end (velocity included) instead of round-tripping
            # through float64 temporaries.
            grad = np.asarray(grad, dtype=weight.dtype) * scale
            if grad.shape != weight.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match weight shape "
                    f"{weight.shape} for parameter {name!r}"
                )
            if self.weight_decay:
                grad = grad + self.weight_decay * weight
            if self.momentum:
                velocity = self._velocity.get(name)
                if velocity is None or velocity.shape != weight.shape:
                    velocity = self._velocity[name] = np.zeros_like(weight)
                elif velocity.dtype != weight.dtype:
                    velocity = self._velocity[name] = velocity.astype(weight.dtype)
                # In place, so entries aliasing a flat velocity buffer stay
                # coherent with it.
                velocity *= self.momentum
                velocity += grad
                update = grad + self.momentum * velocity if self.nesterov else velocity
            else:
                update = grad
            weight -= self._learning_rate * update

    # ------------------------------------------------------------------
    # Fused flat path
    # ------------------------------------------------------------------
    def _shard_velocity(self, update) -> np.ndarray:
        """Flat velocity buffer aligned with ``update``'s weight block.

        Allocated (or re-packed) on first touch of a shard: any existing
        per-name velocity — e.g. restored from a checkpoint, or carried over
        from the dict path — is copied into place, then the per-name entries
        are rebound to views of the flat buffer so both code paths and
        :meth:`state_dict` keep seeing one consistent state.
        """
        velocity = self._flat_velocity.get(update.key)
        if (
            velocity is None
            or velocity.size != update.velocity_size
            or velocity.dtype != update.weights.dtype
        ):
            velocity = np.zeros(update.velocity_size, dtype=update.weights.dtype)
            for segment in update.layout:
                existing = self._velocity.get(segment.name)
                if existing is not None and existing.shape == segment.shape:
                    velocity[segment.lo : segment.hi] = np.asarray(
                        existing, dtype=velocity.dtype
                    ).ravel()
                self._velocity[segment.name] = velocity[
                    segment.lo : segment.hi
                ].reshape(segment.shape)
            self._flat_velocity[update.key] = velocity
        return velocity

    #: Elements per fused chunk.  64K float32 elements keep the chunk's
    #: whole working set (gradient, weight, velocity, temporary) inside the
    #: cache, so each array is streamed from memory exactly once per step
    #: instead of once per arithmetic pass.
    _CHUNK = 65536

    def _chunks_for(self, update) -> tuple[np.ndarray, np.ndarray]:
        entry = self._chunk_scratch.get(update.key)
        dtype = update.weights.dtype
        if entry is None or entry[0].dtype != dtype:
            entry = (
                np.empty(self._CHUNK, dtype=dtype),
                np.empty(self._CHUNK, dtype=dtype),
            )
            self._chunk_scratch[update.key] = entry
        return entry

    def _apply_flat(self, updates: Sequence, scale: float) -> None:
        # Same math as _apply, as fused in-place ops over cache-sized chunks
        # of each contiguous run.  The gradient chunk is first copied (and,
        # for a float64 push into a float32 store, cast) into a pooled
        # scratch chunk — the source may be the worker's live packed
        # gradient buffer, which must never be mutated — and every multiply
        # lands in an existing buffer, so the steady-state step performs
        # zero allocations and exactly one memory pass per array.
        momentum = self.momentum
        weight_decay = self.weight_decay
        learning_rate = self._learning_rate
        nesterov = self.nesterov
        chunk = self._CHUNK
        for update in updates:
            flat_velocity = self._shard_velocity(update) if momentum else None
            grad_scratch, mul_scratch = self._chunks_for(update)
            weights = update.weights
            for lo, hi, source in update.runs:
                if isinstance(source, tuple):
                    velocity = flat_velocity[lo:hi] if momentum else None
                    self._apply_sparse(weights[lo:hi], velocity, source, scale, mul_scratch)
                    continue
                for chunk_lo in range(lo, hi, chunk):
                    chunk_hi = chunk_lo + chunk
                    if chunk_hi > hi:
                        chunk_hi = hi
                    count = chunk_hi - chunk_lo
                    grad = grad_scratch[:count]
                    grad[...] = source[chunk_lo - lo : chunk_hi - lo]
                    weight = weights[chunk_lo:chunk_hi]
                    grad *= scale
                    if weight_decay:
                        tmp = mul_scratch[:count]
                        np.multiply(weight, weight_decay, out=tmp)
                        grad += tmp
                    if momentum:
                        velocity = flat_velocity[chunk_lo:chunk_hi]
                        velocity *= momentum
                        velocity += grad
                        if nesterov:
                            tmp = mul_scratch[:count]
                            np.multiply(velocity, momentum, out=tmp)
                            grad += tmp
                        else:
                            # grad is dead: reuse it for the learning-rate
                            # product.
                            np.multiply(velocity, learning_rate, out=grad)
                            weight -= grad
                            continue
                    # Plain or Nesterov direction lives in grad now.
                    grad *= learning_rate
                    weight -= grad

    def _apply_sparse(self, weights, velocity, source, scale: float, scratch) -> None:
        """One sparse run — ``(sorted unique indices, values)`` — over its
        slice of the weights and (under momentum) the velocity.

        The dense rule without the passes a zero gradient makes no-ops:
        three dense passes per chunk instead of six, none without momentum.
        ``np.array_equal`` to the dense run of the decoded push, not
        byte-equal: there ``-0.0 + 0.0`` turns a negative-zero velocity
        positive, here it is left alone.
        """
        indices, values = source
        values = values.astype(weights.dtype)  # a copy, cast as the dense chunks are
        values *= scale
        if velocity is None:
            values *= self._learning_rate
            weights[indices] -= values
            return
        chunk = self._CHUNK
        bounds = np.searchsorted(indices, range(0, weights.size + chunk, chunk))
        for position, lo in enumerate(range(0, weights.size, chunk)):
            part = velocity[lo : lo + chunk]
            part *= self.momentum
            first, last = bounds[position], bounds[position + 1]
            part[indices[first:last] - lo] += values[first:last]
            step = scratch[: part.size]
            np.multiply(part, self._learning_rate, out=step)
            weights[lo : lo + chunk] -= step

    def state_dict(self) -> dict:
        """Serializable optimizer state: step count, learning rates,
        hyperparameters and the per-parameter momentum velocity."""
        return {
            "step_count": self._step_count,
            "learning_rate": self._learning_rate,
            "base_learning_rate": self._base_learning_rate,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "nesterov": self.nesterov,
            "velocity": {name: np.array(v, copy=True) for name, v in self._velocity.items()},
        }

    def load_state_dict(self, state: Mapping) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self._step_count = int(state["step_count"])
        self._learning_rate = float(state["learning_rate"])
        self._base_learning_rate = float(state.get("base_learning_rate", self._learning_rate))
        self.momentum = float(state.get("momentum", self.momentum))
        self.weight_decay = float(state.get("weight_decay", self.weight_decay))
        self.nesterov = bool(state.get("nesterov", self.nesterov))
        self._velocity = {
            name: np.array(value, copy=True)
            for name, value in dict(state.get("velocity", {})).items()
        }
        # The restored per-name arrays supersede any packed per-shard state;
        # the next step_flat call re-packs from them.
        self._flat_velocity.clear()
