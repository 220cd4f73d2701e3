"""Tests for the experiment harness (configs, workloads, runner, report)."""

import numpy as np
import pytest

from repro.experiments.config import DEFAULT, SMALL, TINY, ExperimentScale, paper_ssp_thresholds
from repro.experiments.report import format_comparison_summary, format_figure_result
from repro.experiments.runner import average_curves, run_paradigm_comparison
from repro.experiments.workloads import alexnet_workload, mlp_workload, resnet_workload
from repro.api import RunResult
from repro.simulation.cluster import homogeneous_cluster


class TestScales:
    def test_presets_are_ordered_by_size(self):
        assert TINY.num_train < SMALL.num_train < DEFAULT.num_train
        assert TINY.name == "tiny"

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentScale(
                name="bad",
                num_train=0,
                num_test=10,
                image_size=8,
                num_classes_cifar100=10,
                model_width=4,
                fc_width=8,
                resnet_depth_for_110=8,
                resnet_depth_for_50=8,
                epochs=1,
                batch_size=8,
                evaluate_every_updates=4,
            )

    def test_paper_ssp_thresholds(self):
        assert paper_ssp_thresholds(full=True) == list(range(3, 16))
        subset = paper_ssp_thresholds()
        assert set(subset) <= set(range(3, 16))
        assert 3 in subset and 15 in subset


class TestWorkloads:
    def test_alexnet_workload_structure(self):
        workload = alexnet_workload(TINY)
        assert workload.has_fully_connected_hidden
        assert workload.num_classes == 10
        assert workload.train_dataset.sample_shape == (3, TINY.image_size, TINY.image_size)
        model = workload.model_builder(np.random.default_rng(0))
        logits = model.forward(workload.train_dataset.inputs[:2])
        assert logits.shape == (2, 10)

    def test_resnet_workload_paper_depth_validation(self):
        with pytest.raises(ValueError):
            resnet_workload(TINY, paper_depth=34)

    def test_resnet_workloads_differ_in_timing_cost(self):
        shallow = resnet_workload(TINY, paper_depth=50)
        deep = resnet_workload(TINY, paper_depth=110)
        assert not shallow.has_fully_connected_hidden
        assert deep.timing_cost.flops_per_sample != shallow.timing_cost.flops_per_sample

    def test_alexnet_timing_cost_is_communication_heavier_than_resnet(self):
        """The paper-scale cost ratio that drives the Figure 3 trends."""
        alexnet = alexnet_workload(TINY)
        resnet = resnet_workload(TINY, paper_depth=110)
        alexnet_ratio = alexnet.timing_cost.parameter_bytes / alexnet.timing_cost.flops_per_sample
        resnet_ratio = resnet.timing_cost.parameter_bytes / resnet.timing_cost.flops_per_sample
        assert alexnet_ratio > resnet_ratio

    def test_mlp_workload_is_flat(self):
        workload = mlp_workload(TINY)
        assert len(workload.train_dataset.sample_shape) == 1


class TestRunner:
    @pytest.fixture(scope="class")
    def comparison(self):
        workload = mlp_workload(TINY)
        return run_paradigm_comparison(
            workload=workload,
            cluster=homogeneous_cluster(num_workers=2, gpus_per_worker=1),
            paradigms=[("bsp", {}), ("asp", {}), ("dssp", {"s_lower": 1, "s_upper": 4})],
            epochs=1.0,
            batch_size=16,
            evaluate_every_updates=8,
            seed=0,
            scale=TINY,
        )

    def test_labels_and_results(self, comparison):
        assert comparison.labels == ["BSP", "ASP", "DSSP s=1, r=3"]
        assert all(isinstance(r, RunResult) for r in comparison.results.values())
        assert all(r.backend == "simulated" for r in comparison.results.values())
        with pytest.raises(KeyError):
            comparison.result("SSP s=99")

    def test_provenance_records_spec_and_injection(self, comparison):
        provenance = comparison.result("BSP").provenance
        assert provenance.spec["paradigm"] == "bsp"
        assert provenance.spec["epochs"] == 1.0
        # The scale the workload was actually built at, canonicalized to
        # plain data.
        assert provenance.spec["scale"]["name"] == "tiny"
        assert provenance.spec["scale"]["num_train"] == TINY.num_train
        assert any(entry.startswith("workload:") for entry in provenance.injected)

    def test_derived_tables(self, comparison):
        assert set(comparison.best_accuracies()) == set(comparison.labels)
        assert all(value > 0 for value in comparison.final_times().values())
        assert all(value > 0 for value in comparison.throughputs().values())
        assert comparison.wait_times()["ASP"] == 0.0
        times = comparison.times_to_accuracy(2.0)
        assert all(value is None for value in times.values())

    def test_empty_paradigms_rejected(self):
        workload = mlp_workload(TINY)
        with pytest.raises(ValueError):
            run_paradigm_comparison(
                workload=workload,
                cluster=homogeneous_cluster(num_workers=1),
                paradigms=[],
                epochs=1.0,
                batch_size=16,
            )

    def test_labels_length_validated(self):
        workload = mlp_workload(TINY)
        with pytest.raises(ValueError):
            run_paradigm_comparison(
                workload=workload,
                cluster=homogeneous_cluster(num_workers=1),
                paradigms=[("bsp", {})],
                epochs=1.0,
                batch_size=16,
                labels=["a", "b"],
            )

    def test_format_comparison_summary(self, comparison):
        text = format_comparison_summary(comparison, targets=[0.5])
        assert "BSP" in text and "ASP" in text
        assert "best acc" in text

    def test_average_curves_interpolates_onto_common_grid(self, comparison):
        results = list(comparison.results.values())
        grid, mean_curve = average_curves(results, num_points=20)
        assert grid.shape == (20,) and mean_curve.shape == (20,)
        assert np.all(np.diff(grid) > 0)
        lows = min(result.accuracies.min() for result in results)
        highs = max(result.accuracies.max() for result in results)
        assert np.all((mean_curve >= lows - 1e-9) & (mean_curve <= highs + 1e-9))

    def test_average_curves_validation(self):
        with pytest.raises(ValueError):
            average_curves([])
