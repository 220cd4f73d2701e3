"""Deterministic random-number management.

Every stochastic component in the library (data generation, weight
initialization, simulated iteration-time jitter) draws from an
explicit :class:`numpy.random.Generator` rather than the global NumPy state,
so experiments are reproducible and independent components do not perturb
each other's streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream"]


class RngStream:
    """A named family of random generators derived from one master seed.

    Components request a stream by name; the same name always maps to the
    same generator state for a given master seed, regardless of the order in
    which streams are requested.

    Example
    -------
    >>> streams = RngStream(seed=123)
    >>> a = streams.get("data")
    >>> b = streams.get("init")
    >>> a is streams.get("data")
    True
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._generators: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Master seed this stream family was created with."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator associated with ``name``, creating it lazily."""
        if name not in self._generators:
            entropy = (self._seed, _stable_hash(name))
            self._generators[name] = np.random.default_rng(
                np.random.SeedSequence(entropy)
            )
        return self._generators[name]

    def reset(self) -> None:
        """Forget all derived generators; subsequent ``get`` calls start fresh."""
        self._generators.clear()


def _stable_hash(name: str) -> int:
    """Hash a string to a 63-bit integer, stable across processes.

    Python's built-in ``hash`` is salted per process, so it cannot be used
    for reproducible seeding.
    """
    value = 0
    for ch in name.encode("utf-8"):
        value = (value * 131 + ch) % (2**63 - 1)
    return value
