"""Smoke tests for the figure/table/ablation regeneration at tiny scale.

These verify the harness runs end to end and that the *robust* qualitative
properties hold; the benchmarks regenerate the full figures at larger scale.
"""

import numpy as np
import pytest

from repro.experiments.ablations import (
    dssp_range_ablation,
    regret_experiment,
    throughput_ablation,
)
from repro.experiments.config import TINY
from repro.experiments.figures import (
    figure2_waiting_time_prediction,
    figure3,
    figure4_heterogeneous,
)
from repro.experiments.report import format_figure_result
from repro.experiments.tables import format_table1, table1_time_to_accuracy


class TestFigure2:
    def test_paper_caption_example(self):
        figure = figure2_waiting_time_prediction(fast_interval=1.0, slow_interval=2.6, r_max=4)
        assert figure.metadata["r_star"] == 3
        waits = figure.series_by_label("predicted_wait")
        assert waits.y[3] == min(waits.y)

    def test_waiting_now_is_never_better_than_optimum(self):
        figure = figure2_waiting_time_prediction(fast_interval=0.7, slow_interval=3.0, r_max=8)
        waits = figure.series_by_label("predicted_wait").y
        assert waits[figure.metadata["r_star"]] <= waits[0]

    def test_equal_speeds_align_within_one_iteration(self):
        # With equal intervals the fast worker's next push lands exactly on
        # the slow worker's next push, so the optimum is r* = 1 with zero
        # predicted waiting (running one more iteration costs nothing).
        figure = figure2_waiting_time_prediction(fast_interval=2.0, slow_interval=2.0, r_max=6)
        waits = figure.series_by_label("predicted_wait").y
        assert figure.metadata["r_star"] <= 1
        assert waits[figure.metadata["r_star"]] == pytest.approx(0.0)

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            figure2_waiting_time_prediction(fast_interval=0.0)

    def test_report_rendering(self):
        figure = figure2_waiting_time_prediction()
        text = format_figure_result(figure)
        assert "figure2" in text
        with pytest.raises(KeyError):
            figure.series_by_label("missing")


@pytest.mark.slow
class TestFigure3:
    @pytest.fixture(scope="class")
    def alexnet_figure(self):
        return figure3(model="alexnet", scale=TINY, ssp_thresholds=[3, 15], epochs=2.0)

    def test_contains_all_expected_series(self, alexnet_figure):
        labels = alexnet_figure.labels
        assert "BSP" in labels and "ASP" in labels
        assert "DSSP s=3, r=12" in labels
        assert "SSP s=3" in labels and "SSP s=15" in labels
        assert "Average SSP" in labels

    def test_bsp_waits_more_than_asynchronous_paradigms(self, alexnet_figure):
        comparison = alexnet_figure.comparison
        assert comparison.wait_times()["BSP"] > comparison.wait_times()["ASP"]
        assert comparison.wait_times()["ASP"] == 0.0

    def test_asp_throughput_at_least_bsp(self, alexnet_figure):
        throughputs = alexnet_figure.comparison.throughputs()
        assert throughputs["ASP"] >= throughputs["BSP"]

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            figure3(model="vgg", scale=TINY)


@pytest.mark.slow
class TestFigure4AndTable1:
    @pytest.fixture(scope="class")
    def figure4(self):
        return figure4_heterogeneous(scale=TINY, ssp_thresholds=[3, 15], epochs=2.0)

    def test_series_and_metadata(self, figure4):
        assert set(figure4.metadata["devices"]) == {"gtx1080ti", "gtx1060"}
        assert "DSSP s=3, r=12" in figure4.labels

    def test_dssp_finishes_no_later_than_ssp_and_bsp(self, figure4):
        times = figure4.comparison.final_times()
        assert times["DSSP s=3, r=12"] <= times["SSP s=3"] + 1e-9
        assert times["DSSP s=3, r=12"] <= times["BSP"] + 1e-9

    def test_table1_rows_and_formatting(self):
        table = table1_time_to_accuracy(scale=TINY, epochs=2.0)
        assert len(table.rows) == 6
        paradigms = [row.paradigm for row in table.rows]
        assert paradigms[0] == "BSP" and paradigms[-1].startswith("DSSP")
        text = format_table1(table)
        assert "Targets" in text and "DSSP" in text


@pytest.mark.slow
class TestAblations:
    def test_throughput_ablation_ratios(self):
        result = throughput_ablation(scale=TINY, epochs=1.0)
        # The compute-to-communication ratio must be much larger for the
        # conv-only ResNet than for the FC-bearing AlexNet (Section V-C).
        assert result.resnet_compute_to_comm > result.alexnet_compute_to_comm
        assert set(result.alexnet_throughput) == set(result.resnet_throughput)

    def test_dssp_range_ablation_entries(self):
        entries = dssp_range_ablation(ranges=[(3, 3), (3, 9)], scale=TINY, epochs=1.0)
        assert len(entries) == 2
        degenerate, wide = entries
        assert degenerate.s_upper == 3 and wide.s_upper == 9
        assert wide.total_wait_time <= degenerate.total_wait_time + 1e-9


class TestRegretExperiment:
    def test_dssp_regret_within_bound_and_sublinear(self):
        result = regret_experiment(paradigm="dssp", num_workers=2, num_train=256, steps=60)
        assert result.within_bound
        assert result.sublinear
        assert result.cumulative_regret.shape[0] >= 60

    def test_ssp_variant_runs(self):
        result = regret_experiment(
            paradigm="ssp", paradigm_kwargs={"staleness": 2}, num_workers=2,
            num_train=256, steps=40,
        )
        assert np.isfinite(result.theoretical_bound)
