"""Tests for datasets and the synthetic generators."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.data.synthetic import (
    SyntheticImageConfig,
    make_synthetic_image_dataset,
    synthetic_cifar10,
    synthetic_cifar100,
)


class TestArrayDataset:
    def test_length_and_indexing(self):
        dataset = ArrayDataset(np.arange(12).reshape(6, 2), np.arange(6))
        assert len(dataset) == 6
        inputs, label = dataset[2]
        assert np.allclose(inputs, [4, 5])
        assert label == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((0, 2)), np.zeros(0))

    def test_subset_copies_data(self):
        dataset = ArrayDataset(np.arange(6).reshape(3, 2).astype(float), np.arange(3))
        subset = dataset.subset(np.array([0, 2]))
        subset.inputs[0, 0] = 99.0
        assert dataset.inputs[0, 0] == 0.0
        assert len(subset) == 2

    def test_num_classes_and_sample_shape(self):
        dataset = ArrayDataset(np.zeros((4, 3, 8, 8)), np.array([0, 1, 2, 2]))
        assert dataset.num_classes == 3
        assert dataset.sample_shape == (3, 8, 8)

    def test_num_classes_requires_integer_labels(self):
        dataset = ArrayDataset(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(TypeError):
            _ = dataset.num_classes


class TestSyntheticImages:
    def test_shapes_and_label_range(self):
        train, test = synthetic_cifar10(num_train=100, num_test=40, image_size=8)
        assert train.inputs.shape == (100, 3, 8, 8)
        assert test.inputs.shape == (40, 3, 8, 8)
        assert train.labels.min() >= 0
        assert train.labels.max() <= 9

    def test_cifar100_stand_in_has_requested_classes(self):
        train, _ = synthetic_cifar100(num_train=300, num_test=60, num_classes=20)
        assert train.labels.max() <= 19

    def test_generation_is_deterministic_per_seed(self):
        first, _ = synthetic_cifar10(num_train=50, num_test=10, seed=3)
        second, _ = synthetic_cifar10(num_train=50, num_test=10, seed=3)
        third, _ = synthetic_cifar10(num_train=50, num_test=10, seed=4)
        assert np.allclose(first.inputs, second.inputs)
        assert not np.allclose(first.inputs, third.inputs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticImageConfig(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticImageConfig(num_train=5, num_classes=10)
        with pytest.raises(ValueError):
            SyntheticImageConfig(image_size=2)
        with pytest.raises(ValueError):
            SyntheticImageConfig(noise_scale=-1)

    def test_classes_are_separable_by_prototype_matching(self):
        """A nearest-prototype classifier should beat chance by a wide margin,
        otherwise the datasets would be pure noise and useless for the
        reproduction's convergence experiments."""
        config = SyntheticImageConfig(
            num_classes=4, num_train=400, num_test=100, image_size=8, noise_scale=0.5, seed=0
        )
        train, test = make_synthetic_image_dataset(config)
        prototypes = np.stack(
            [train.inputs[train.labels == c].mean(axis=0) for c in range(4)]
        )
        flat_test = test.inputs.reshape(len(test), -1)
        flat_protos = prototypes.reshape(4, -1)
        distances = ((flat_test[:, None, :] - flat_protos[None, :, :]) ** 2).sum(axis=2)
        accuracy = float(np.mean(distances.argmin(axis=1) == test.labels))
        assert accuracy > 0.6
