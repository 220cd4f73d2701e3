"""Tests for ASCII plotting and the supplementary simulated ablations."""

import pytest

from repro.experiments.config import TINY
from repro.metrics.plotting import ascii_curves
from repro.simulation.cluster import homogeneous_cluster


class TestAsciiCurves:
    def test_renders_all_labels_and_ranges(self):
        chart = ascii_curves(
            {
                "BSP": ([0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4]),
                "DSSP": ([0, 1, 2], [0.1, 0.3, 0.5]),
            },
            width=40,
            height=10,
        )
        assert "BSP" in chart and "DSSP" in chart
        assert "0.100" in chart and "0.500" in chart
        # One line per grid row plus header, axis and legend lines.
        assert len(chart.splitlines()) == 10 + 4

    def test_markers_plotted_inside_grid(self):
        chart = ascii_curves({"only": ([0, 10], [0.0, 1.0])}, width=20, height=5)
        grid_lines = chart.splitlines()[1:6]
        assert any("O" in line for line in grid_lines)

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_curves({})
        with pytest.raises(ValueError):
            ascii_curves({"a": ([0], [1])}, width=4, height=2)

    def test_constant_curve_does_not_divide_by_zero(self):
        chart = ascii_curves({"flat": ([0, 1, 2], [0.5, 0.5, 0.5])})
        assert "flat" in chart


class TestFluctuatingEnvironmentAblation:
    def test_entries_and_adaptivity(self):
        from repro.experiments.ablations import fluctuating_environment_ablation

        entries = fluctuating_environment_ablation(scale=TINY, epochs=1.0, degradation_factor=3.0)
        labels = [entry.paradigm_label for entry in entries]
        assert labels == ["BSP", "ASP", "SSP s=3", "DSSP s=3, r=12"]
        by_label = {entry.paradigm_label: entry for entry in entries}
        # ASP never waits even when a worker degrades; BSP always pays the most.
        assert by_label["ASP"].total_wait_time == 0.0
        assert by_label["BSP"].total_wait_time >= by_label["DSSP s=3, r=12"].total_wait_time - 1e-9
        # The adaptive paradigm loses no more total time than the fixed ones.
        assert by_label["DSSP s=3, r=12"].total_time <= by_label["BSP"].total_time + 1e-9

    def test_invalid_degradation_rejected(self):
        from repro.experiments.ablations import fluctuating_environment_ablation

        with pytest.raises(ValueError):
            fluctuating_environment_ablation(scale=TINY, degradation_factor=0.5)


class TestSlowdownSchedule:
    @staticmethod
    def simulate(tiny_flat_datasets, schedule):
        from types import SimpleNamespace

        from repro.models import mlp
        from repro.ps.plan import TrainingPlan
        from repro.simulation.trainer import SimulatedTraining, SimulationOptions

        train, test = tiny_flat_datasets
        input_dim = train.inputs.shape[1]
        workload = SimpleNamespace(
            model_builder=lambda rng: mlp(
                input_dim=input_dim, hidden_dims=(8,), num_classes=4, rng=rng
            ),
            train_dataset=train,
            test_dataset=test,
        )
        plan = TrainingPlan(paradigm="asp", paradigm_kwargs={}, num_workers=2, batch_size=16)
        options = SimulationOptions(
            cluster=homogeneous_cluster(num_workers=2, gpus_per_worker=1),
            epochs=1.0,
            slowdown_schedule=schedule,
        )
        return SimulatedTraining(plan, workload, options).run()

    def test_schedule_slows_targeted_worker(self, tiny_flat_datasets):
        baseline = self.simulate(tiny_flat_datasets, None)
        slowed = self.simulate(
            tiny_flat_datasets, lambda worker_id, now: 4.0 if worker_id == "worker-0" else 1.0
        )
        assert slowed.total_time > baseline.total_time
        assert (
            slowed.iterations_per_worker["worker-0"]
            < slowed.iterations_per_worker["worker-1"]
        )

    def test_non_positive_factor_rejected(self, tiny_flat_datasets):
        with pytest.raises(ValueError):
            self.simulate(tiny_flat_datasets, lambda worker_id, now: 0.0)
