"""Dataset abstractions."""

from __future__ import annotations

import numpy as np

__all__ = ["Dataset", "ArrayDataset"]


class Dataset:
    """Minimal dataset interface: indexable samples and a length."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index):
        raise NotImplementedError


class ArrayDataset(Dataset):
    """In-memory dataset of ``(inputs, labels)`` arrays.

    ``inputs`` may be images ``(N, C, H, W)`` or flat features ``(N, D)``;
    ``labels`` are integer class indices (or float targets for regression).
    """

    def __init__(self, inputs: np.ndarray, labels: np.ndarray) -> None:
        inputs = np.asarray(inputs)
        labels = np.asarray(labels)
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError(
                f"inputs and labels disagree on sample count: "
                f"{inputs.shape[0]} vs {labels.shape[0]}"
            )
        if inputs.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        self.inputs = inputs
        self.labels = labels

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    def __getitem__(self, index):
        return self.inputs[index], self.labels[index]

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """Dataset restricted to the given sample indices (copies the data)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ArrayDataset(self.inputs[indices], self.labels[indices])  # indexing copies

    @property
    def num_classes(self) -> int:
        """Number of distinct classes when labels are integers."""
        labels = np.asarray(self.labels)
        if not np.issubdtype(labels.dtype, np.integer):
            raise TypeError("num_classes is only defined for integer-labelled datasets")
        return int(labels.max()) + 1 if labels.size else 0

    @property
    def sample_shape(self) -> tuple[int, ...]:
        """Shape of one input sample."""
        return tuple(self.inputs.shape[1:])
