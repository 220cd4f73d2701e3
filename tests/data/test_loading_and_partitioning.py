"""Tests for mini-batch loading and partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            MiniBatchLoader(make_dataset(4), batch_size=0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            MiniBatchLoader(
                make_dataset(4), batch_size=8, rng=np.random.default_rng(0), drop_last=True
            )

    @pytest.mark.parametrize("batches", [0, 1, 3, 4, 7])
    def test_skip_lands_where_drawing_would(self, batches):
        """10 rows in batches of 3: the skips cross partial batches and
        epoch reshuffles, as a resumed worker's replay does."""
        drawn = MiniBatchLoader(make_dataset(10), batch_size=3, rng=np.random.default_rng(4))
        skipped = MiniBatchLoader(make_dataset(10), batch_size=3, rng=np.random.default_rng(4))
        for _ in range(batches):
            drawn.next_batch()
        skipped.skip(batches)
        for _ in range(5):
            for a, b in zip(drawn.next_batch(), skipped.next_batch()):
                assert np.array_equal(a, b)

    def test_skip_rejects_a_negative_count(self):
        loader = MiniBatchLoader(make_dataset(4), batch_size=2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-negative"):
            loader.skip(-1)

    def test_next_batch_returns_the_partial_tail_of_each_epoch(self):
        loader = MiniBatchLoader(
            make_dataset(10), batch_size=4, rng=np.random.default_rng(0), shuffle=False
        )
        sizes = [loader.next_batch()[0].shape[0] for _ in range(6)]
        assert sizes == [4, 4, 2, 4, 4, 2]

    def test_inputs_and_labels_stay_paired_across_reshuffles(self):
        count = 12
        dataset = ArrayDataset(np.arange(count, dtype=float)[:, None] * 10.0, np.arange(count))
        loader = MiniBatchLoader(dataset, batch_size=5, rng=np.random.default_rng(8))
        for _ in range(9):
            inputs, labels = loader.next_batch()
            assert np.array_equal(inputs[:, 0], labels * 10.0)

    def test_rows_restrict_the_loader_to_its_partition(self):
        rows = np.array([7, 2, 11, 5])
        dataset = make_dataset(12)
        loader = MiniBatchLoader(dataset, batch_size=3, rng=np.random.default_rng(1), rows=rows)
        seen = [loader.next_batch()[0] for _ in range(4)]
        drawn = np.concatenate(seen)[:, 0] / dataset.inputs.shape[1]
        assert set(drawn.astype(int)) == set(rows)
        assert np.array_equal(loader.rows, rows)

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_a_rows_loader_draws_what_a_subset_loader_draws(self, shuffle):
        rows = np.array([9, 0, 4, 13, 6, 2, 17])
        dataset = make_dataset(20)
        by_rows = MiniBatchLoader(
            dataset, batch_size=3, rng=np.random.default_rng(6), shuffle=shuffle, rows=rows
        )
        by_subset = MiniBatchLoader(
            dataset.subset(rows), batch_size=3, rng=np.random.default_rng(6), shuffle=shuffle
        )
        for _ in range(8):
            for a, b in zip(by_rows.next_batch(), by_subset.next_batch()):
                assert a.tobytes() == b.tobytes()
