"""Tests for the regret-bound helpers (paper Theorems 1 and 2)."""

import math

import numpy as np
import pytest

from repro.core.regret import (
    dssp_regret_bound,
    empirical_regret,
    regret_is_sublinear,
    ssp_regret_bound,
)


class TestBounds:
    def test_ssp_bound_formula(self):
        value = ssp_regret_bound(num_iterations=100, staleness=3, num_workers=4)
        assert value == pytest.approx(4 * math.sqrt(2 * 4 * 4 * 100))

    def test_dssp_bound_equals_ssp_at_upper_threshold(self):
        dssp = dssp_regret_bound(
            num_iterations=500, s_lower=3, max_extra_iterations=12, num_workers=4
        )
        ssp = ssp_regret_bound(num_iterations=500, staleness=15, num_workers=4)
        assert dssp == pytest.approx(ssp)

    def test_bound_grows_with_staleness_and_workers(self):
        base = ssp_regret_bound(1000, staleness=1, num_workers=2)
        assert ssp_regret_bound(1000, staleness=5, num_workers=2) > base
        assert ssp_regret_bound(1000, staleness=1, num_workers=8) > base

    def test_bound_is_sublinear_in_iterations(self):
        small = ssp_regret_bound(100, 3, 4) / 100
        large = ssp_regret_bound(10_000, 3, 4) / 10_000
        assert large < small

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            ssp_regret_bound(0, 1, 1)
        with pytest.raises(ValueError):
            ssp_regret_bound(10, -1, 1)
        with pytest.raises(ValueError):
            ssp_regret_bound(10, 1, 0)
        with pytest.raises(ValueError):
            dssp_regret_bound(10, 1, -1, 2)

    def test_bound_scales_linearly_with_diameter_and_lipschitz_constant(self):
        unit = ssp_regret_bound(400, staleness=2, num_workers=3)
        scaled = ssp_regret_bound(
            400, staleness=2, num_workers=3, lipschitz_constant=3.0, diameter_bound=2.0
        )
        assert scaled == pytest.approx(6.0 * unit)

    def test_dssp_without_extra_iterations_is_ssp_at_the_lower_threshold(self):
        dssp = dssp_regret_bound(
            num_iterations=250, s_lower=4, max_extra_iterations=0, num_workers=8
        )
        assert dssp == ssp_regret_bound(num_iterations=250, staleness=4, num_workers=8)

    @pytest.mark.parametrize("constants", [(0.0, 1.0), (1.0, -2.0)])
    def test_non_positive_constants_rejected(self, constants):
        lipschitz, diameter = constants
        with pytest.raises(ValueError, match="must be > 0"):
            ssp_regret_bound(10, 1, 1, lipschitz_constant=lipschitz, diameter_bound=diameter)


class TestEmpiricalRegret:
    def test_cumulative_sum(self):
        regret = empirical_regret([1.0, 0.8, 0.6], optimal_loss=0.5)
        assert np.allclose(regret, [0.5, 0.8, 0.9])

    def test_empty_losses_rejected(self):
        with pytest.raises(ValueError):
            empirical_regret([], optimal_loss=0.0)

    def test_sublinear_detection_on_decaying_losses(self):
        steps = np.arange(1, 200)
        losses = 1.0 / np.sqrt(steps)
        regret = empirical_regret(losses, optimal_loss=0.0)
        assert regret_is_sublinear(regret)

    def test_linear_regret_not_sublinear(self):
        losses = np.ones(200)
        regret = empirical_regret(losses, optimal_loss=0.0)
        assert not regret_is_sublinear(regret)

    def test_sublinear_requires_enough_points(self):
        with pytest.raises(ValueError):
            regret_is_sublinear(np.arange(4))

    @pytest.mark.parametrize("window_fraction", [0.0, 0.6])
    def test_window_fraction_outside_range_rejected(self, window_fraction):
        with pytest.raises(ValueError, match="window_fraction"):
            regret_is_sublinear(np.arange(16.0), window_fraction=window_fraction)

    def test_two_dimensional_losses_rejected(self):
        with pytest.raises(ValueError):
            empirical_regret(np.ones((2, 3)), optimal_loss=0.0)
