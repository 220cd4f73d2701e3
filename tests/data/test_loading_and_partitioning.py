"""Tests for mini-batch loading, partitioning and augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.augmentation import (
    AugmentationPipeline,
    add_gaussian_noise,
    random_channel_dropout,
    random_horizontal_flip,
    random_rotation,
)
from repro.data.dataset import ArrayDataset
from repro.data.loader import MiniBatchLoader
from repro.data.partitioner import partition_dataset, partition_indices


def make_dataset(count=20, feature_dim=3):
    return ArrayDataset(
        np.arange(count * feature_dim, dtype=float).reshape(count, feature_dim),
        np.arange(count) % 4,
    )


class TestPartitioner:
    def test_partitions_cover_all_indices_exactly_once(self):
        parts = partition_indices(20, 3)
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(20))

    def test_partition_sizes_differ_by_at_most_one(self):
        parts = partition_indices(23, 4)
        sizes = [len(part) for part in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_shuffled_partitions_are_random_but_complete(self):
        parts = partition_indices(30, 3, rng=np.random.default_rng(0))
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(30))
        assert not np.array_equal(parts[0], np.arange(10))

    def test_more_partitions_than_samples_rejected(self):
        with pytest.raises(ValueError):
            partition_indices(2, 3)
        with pytest.raises(ValueError):
            partition_indices(2, 0)

    def test_partition_dataset_returns_datasets(self):
        datasets = partition_dataset(make_dataset(20), 4)
        assert len(datasets) == 4
        assert sum(len(d) for d in datasets) == 20

    @settings(max_examples=25, deadline=None)
    @given(
        num_samples=st.integers(min_value=4, max_value=200),
        num_partitions=st.integers(min_value=1, max_value=4),
    )
    def test_partition_property(self, num_samples, num_partitions):
        if num_samples < num_partitions:
            return
        parts = partition_indices(num_samples, num_partitions, rng=np.random.default_rng(1))
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(num_samples))


class TestMiniBatchLoader:
    def test_epoch_covers_dataset_once(self):
        loader = MiniBatchLoader(make_dataset(10), batch_size=3, rng=np.random.default_rng(0))
        seen = sum(batch[0].shape[0] for batch in loader.epoch())
        assert seen == 10

    def test_drop_last_drops_partial_batch(self):
        loader = MiniBatchLoader(
            make_dataset(10), batch_size=3, rng=np.random.default_rng(0), drop_last=True
        )
        sizes = [batch[0].shape[0] for batch in loader.epoch()]
        assert sizes == [3, 3, 3]

    def test_next_batch_cycles_and_counts_epochs(self):
        loader = MiniBatchLoader(make_dataset(8), batch_size=4, rng=np.random.default_rng(0))
        for _ in range(5):
            inputs, labels = loader.next_batch()
            assert inputs.shape[0] == 4
            assert labels.shape[0] == 4

    def test_shuffle_changes_order_but_not_content(self):
        dataset = make_dataset(16)
        loader = MiniBatchLoader(dataset, batch_size=16, rng=np.random.default_rng(3))
        inputs, labels = loader.next_batch()
        assert not np.allclose(inputs, dataset.inputs)
        assert np.allclose(np.sort(inputs.ravel()), np.sort(dataset.inputs.ravel()))

    def test_without_shuffle_preserves_order(self):
        dataset = make_dataset(8)
        loader = MiniBatchLoader(
            dataset, batch_size=8, rng=np.random.default_rng(0), shuffle=False
        )
        inputs, _ = loader.next_batch()
        assert np.allclose(inputs, dataset.inputs)

    def test_augmentation_applied(self):
        dataset = make_dataset(8)
        loader = MiniBatchLoader(
            dataset,
            batch_size=8,
            rng=np.random.default_rng(0),
            shuffle=False,
            augmentation=lambda images, rng: images + 1.0,
        )
        inputs, _ = loader.next_batch()
        assert np.allclose(inputs, dataset.inputs + 1.0)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            MiniBatchLoader(make_dataset(4), batch_size=0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            MiniBatchLoader(
                make_dataset(4), batch_size=8, rng=np.random.default_rng(0), drop_last=True
            )


class TestAugmentation:
    @pytest.fixture
    def images(self):
        return np.random.default_rng(0).normal(size=(6, 3, 8, 8))

    def test_horizontal_flip_preserves_content(self, images):
        flipped = random_horizontal_flip(images, np.random.default_rng(0), probability=1.0)
        assert np.allclose(flipped, images[:, :, :, ::-1])

    def test_flip_probability_zero_is_identity(self, images):
        assert np.allclose(
            random_horizontal_flip(images, np.random.default_rng(0), probability=0.0), images
        )

    def test_gaussian_noise_changes_values(self, images):
        noisy = add_gaussian_noise(images, np.random.default_rng(0), scale=0.1)
        assert not np.allclose(noisy, images)
        assert np.allclose(noisy, images, atol=1.0)

    def test_channel_dropout_zeroes_one_channel(self, images):
        dropped = random_channel_dropout(images, np.random.default_rng(0), probability=1.0)
        zero_channels = (np.abs(dropped).sum(axis=(2, 3)) == 0).sum(axis=1)
        assert np.all(zero_channels >= 1)

    def test_rotation_preserves_pixel_multiset(self, images):
        rotated = random_rotation(images, np.random.default_rng(0))
        assert np.allclose(np.sort(rotated.ravel()), np.sort(images.ravel()))

    def test_pipeline_composes(self, images):
        pipeline = AugmentationPipeline(
            [
                lambda batch, rng: batch + 1.0,
                lambda batch, rng: batch * 2.0,
            ]
        )
        assert np.allclose(pipeline(images, np.random.default_rng(0)), (images + 1.0) * 2.0)

    def test_invalid_probabilities_rejected(self, images):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_horizontal_flip(images, rng, probability=2.0)
        with pytest.raises(ValueError):
            add_gaussian_noise(images, rng, scale=-1.0)
        with pytest.raises(ValueError):
            random_channel_dropout(images, rng, probability=-0.5)
