"""Datasets, partitioning and mini-batch loading.

The paper uses CIFAR-10 and CIFAR-100.  Those binaries are not available in
the offline reproduction environment, so the datasets are synthetic
image-classification problems (:func:`synthetic_cifar10`,
:func:`synthetic_cifar100`) whose class structure and tensor geometry mirror
CIFAR.  Data parallelism follows the paper: the training set is split into
equal partitions, one per worker.
"""

from repro.data.dataset import ArrayDataset, Dataset
from repro.data.synthetic import (
    SyntheticImageConfig,
    make_synthetic_image_dataset,
    synthetic_cifar10,
    synthetic_cifar100,
)
from repro.data.partitioner import partition_dataset, partition_indices
from repro.data.loader import MiniBatchLoader

__all__ = [
    "Dataset",
    "ArrayDataset",
    "SyntheticImageConfig",
    "make_synthetic_image_dataset",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "partition_dataset",
    "partition_indices",
    "MiniBatchLoader",
]
