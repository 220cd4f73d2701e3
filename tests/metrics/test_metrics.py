"""Tests for accuracy, convergence and throughput helpers."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.metrics.accuracy import evaluate_model, top1_accuracy
from repro.metrics.convergence import time_to_accuracy
from repro.metrics.throughput import iteration_throughput
from repro.models import mlp


class TestTop1Accuracy:
    def test_perfect_and_zero(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert top1_accuracy(logits, np.array([0, 1])) == 1.0
        assert top1_accuracy(logits, np.array([1, 0])) == 0.0

    def test_partial(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 1.0], [1.0, 3.0]])
        assert top1_accuracy(logits, np.array([0, 1, 1, 1])) == pytest.approx(0.75)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            top1_accuracy(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            top1_accuracy(np.zeros((3, 2)), np.zeros(2, dtype=int))


class TestEvaluateModel:
    def test_returns_accuracy_and_loss(self):
        rng = np.random.default_rng(0)
        model = mlp(input_dim=6, hidden_dims=(8,), num_classes=3, rng=rng)
        dataset = ArrayDataset(rng.normal(size=(30, 6)), rng.integers(0, 3, size=30))
        accuracy, loss = evaluate_model(model, dataset, batch_size=8)
        assert 0.0 <= accuracy <= 1.0
        assert loss > 0.0

    def test_restores_training_mode(self):
        rng = np.random.default_rng(0)
        model = mlp(input_dim=4, hidden_dims=(), num_classes=2, rng=rng)
        dataset = ArrayDataset(rng.normal(size=(8, 4)), rng.integers(0, 2, size=8))
        model.train(True)
        evaluate_model(model, dataset)
        assert model.training
        model.eval()
        evaluate_model(model, dataset)
        assert not model.training

    def test_invalid_batch_size(self):
        rng = np.random.default_rng(0)
        model = mlp(input_dim=4, hidden_dims=(), num_classes=2, rng=rng)
        dataset = ArrayDataset(rng.normal(size=(8, 4)), rng.integers(0, 2, size=8))
        with pytest.raises(ValueError):
            evaluate_model(model, dataset, batch_size=0)


class TestConvergence:
    TIMES = [0.0, 10.0, 20.0, 30.0]
    ACCURACIES = [0.1, 0.4, 0.6, 0.65]

    def test_time_to_accuracy(self):
        assert time_to_accuracy(self.TIMES, self.ACCURACIES, 0.5) == 20.0
        assert time_to_accuracy(self.TIMES, self.ACCURACIES, 0.05) == 0.0
        assert time_to_accuracy(self.TIMES, self.ACCURACIES, 0.9) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            time_to_accuracy([0.0, 1.0], [0.1], 0.5)
        with pytest.raises(ValueError):
            time_to_accuracy([1.0, 0.0], [0.1, 0.2], 0.5)

    def test_reaching_the_target_exactly_counts(self):
        assert time_to_accuracy(self.TIMES, self.ACCURACIES, 0.6) == 20.0

    def test_an_empty_series_never_reaches_a_target(self):
        assert time_to_accuracy([], [], 0.1) is None

    def test_the_first_crossing_wins_over_a_later_dip(self):
        assert time_to_accuracy([0.0, 5.0, 5.0, 9.0], [0.2, 0.7, 0.4, 0.8], 0.6) == 5.0

    def test_two_dimensional_series_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            time_to_accuracy([[0.0, 1.0]], [[0.1, 0.2]], 0.5)


class TestThroughput:
    def test_updates_and_samples_per_second(self):
        summary = iteration_throughput(total_updates=100, total_time=10.0, samples_per_update=32)
        assert summary.updates_per_second == pytest.approx(10.0)
        assert summary.samples_per_second == pytest.approx(320.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            iteration_throughput(-1, 1.0)
        with pytest.raises(ValueError):
            iteration_throughput(1, 0.0)
        with pytest.raises(ValueError):
            iteration_throughput(1, 1.0, samples_per_update=-1)
