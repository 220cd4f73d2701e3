"""Tests for the plain-text report helpers."""

import numpy as np
import pytest

from repro.experiments.figures import FigureResult, FigureSeries
from repro.experiments.report import _subsample_indices, format_figure_result


class TestReportHelpers:
    def test_subsample_indices_cover_ends(self):
        indices = _subsample_indices(100, 8)
        assert indices[0] == 0
        assert indices[-1] == 99
        assert len(indices) <= 8
        assert _subsample_indices(3, 8) == [0, 1, 2]
        assert _subsample_indices(0, 8) == []

    def test_format_figure_result_lists_every_series(self):
        figure = FigureResult(
            figure_id="demo",
            description="demo figure",
            series=[
                FigureSeries(label="one", x=np.array([0.0, 1.0]), y=np.array([0.1, 0.2])),
                FigureSeries(label="two", x=np.array([0.0]), y=np.array([0.3])),
            ],
            metadata={"note": "x"},
        )
        text = format_figure_result(figure)
        assert "demo figure" in text
        assert "one" in text and "two" in text
        assert "note" in text

    def test_figure_result_lookup_errors(self):
        figure = FigureResult(figure_id="demo", description="d")
        assert figure.labels == []
        with pytest.raises(KeyError):
            figure.series_by_label("absent")
