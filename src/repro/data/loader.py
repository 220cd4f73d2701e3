"""Mini-batch loading."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.data.dataset import ArrayDataset

__all__ = ["MiniBatchLoader"]


class MiniBatchLoader:
    """Cycling mini-batch sampler over an :class:`ArrayDataset`.

    Workers in the parameter-server framework iterate indefinitely until the
    training schedule ends, so the loader exposes both epoch-style iteration
    (:meth:`epoch`) and an infinite stream (:meth:`next_batch`) that reshuffles
    at every epoch boundary.

    ``rows`` (a worker's partition) restricts it to those rows, gathered from
    the shared arrays in place: shuffles permute by length alone, so it draws
    what a loader over ``dataset.subset(rows)`` would, byte for byte.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int,
        rng: np.random.Generator,
        shuffle: bool = True,
        drop_last: bool = False,
        rows: np.ndarray | None = None,
    ) -> None:
        #: The dataset rows this loader draws from, in their given order.
        self.rows = np.array(np.arange(len(dataset)) if rows is None else rows, dtype=np.int64)
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if drop_last and batch_size > len(self.rows):
            raise ValueError("batch_size larger than dataset with drop_last=True")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.drop_last = bool(drop_last)
        self._rng = rng
        self._order = self.rows.copy()
        self._cursor = 0
        if self.shuffle:
            self._rng.shuffle(self._order)

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next mini-batch, reshuffling at epoch boundaries."""
        if self._cursor >= len(self._order):
            self._cursor = 0
            if self.shuffle:
                self._rng.shuffle(self._order)
        end = min(self._cursor + self.batch_size, len(self._order))
        indices = self._order[self._cursor : end]
        self._cursor = end
        inputs = self.dataset.inputs[indices]
        labels = self.dataset.labels[indices]
        return inputs, labels

    def skip(self, batches: int) -> None:
        """Advance the stream past ``batches`` mini-batches without yielding them.

        Fast-forward for deterministic replay: a worker rejoining a restarted
        server rebuilds its loader from the seed and skips to the resumed
        iteration, landing in exactly the state a worker that drew (and
        trained on) those batches would be in: only the cursor and the epoch
        reshuffles advance.
        """
        if batches < 0:
            raise ValueError("batches must be non-negative")
        for _ in range(batches):
            if self._cursor >= len(self._order):
                self._cursor = 0
                if self.shuffle:
                    self._rng.shuffle(self._order)
            self._cursor = min(self._cursor + self.batch_size, len(self._order))

    def epoch(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Iterate over exactly one epoch of mini-batches."""
        order = self.rows.copy()
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            indices = order[start : start + self.batch_size]
            if self.drop_last and indices.shape[0] < self.batch_size:
                break
            inputs = self.dataset.inputs[indices]
            labels = self.dataset.labels[indices]
            yield inputs, labels
