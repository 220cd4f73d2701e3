"""Tests for weight initializers and the Parameter container."""

import numpy as np
import pytest

from repro.nn import initializers
from repro.nn.parameter import Parameter


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestInitializers:
    def test_kaiming_uniform_bounds(self, rng):
        weights = initializers.kaiming_uniform((64, 128), rng)
        bound = np.sqrt(6.0 / 128)
        assert weights.shape == (64, 128)
        assert np.all(np.abs(weights) <= bound)

    def test_kaiming_normal_scale(self, rng):
        weights = initializers.kaiming_normal((256, 256), rng)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 256), rel=0.1)

    def test_conv_fan_in_uses_receptive_field(self, rng):
        weights = initializers.kaiming_uniform((8, 4, 3, 3), rng)
        bound = np.sqrt(6.0 / (4 * 9))
        assert np.all(np.abs(weights) <= bound)

    def test_zeros_and_ones(self):
        assert np.all(initializers.zeros((3, 3)) == 0)
        assert np.all(initializers.ones((3,)) == 1)

    def test_different_rngs_give_different_weights(self):
        a = initializers.kaiming_uniform((4, 4), np.random.default_rng(1))
        b = initializers.kaiming_uniform((4, 4), np.random.default_rng(2))
        assert not np.allclose(a, b)

    @pytest.mark.parametrize(
        "shape,fan_in",
        [((64,), 64), ((16, 32), 32), ((8, 4, 3, 3), 36), ((2, 3, 4), 24)],
        ids=["vector", "linear", "conv", "other"],
    )
    def test_kaiming_uniform_bound_follows_the_fan_in(self, rng, shape, fan_in):
        weights = initializers.kaiming_uniform(shape, rng)
        bound = np.sqrt(6.0 / fan_in)
        assert weights.shape == shape
        assert np.all(np.abs(weights) <= bound)
        assert np.abs(weights).max() > 0.9 * bound

    def test_zeros_and_ones_are_float64_whatever_the_rng(self, rng):
        for init in (initializers.zeros, initializers.ones):
            assert init((2, 2)).dtype == np.float64
            assert np.array_equal(init((2, 2), rng), init((2, 2)))


class TestParameter:
    def test_initial_gradient_is_zero(self):
        parameter = Parameter(np.ones((2, 3)))
        assert parameter.shape == (2, 3)
        assert parameter.size == 6
        assert np.all(parameter.grad == 0)

    def test_accumulate_grad_adds(self):
        parameter = Parameter(np.zeros(3))
        parameter.accumulate_grad(np.ones(3))
        parameter.accumulate_grad(np.ones(3))
        assert np.allclose(parameter.grad, 2.0)

    def test_accumulate_grad_shape_checked(self):
        parameter = Parameter(np.zeros(3))
        with pytest.raises(ValueError):
            parameter.accumulate_grad(np.zeros(4))

    def test_zero_grad(self):
        parameter = Parameter(np.zeros(3))
        parameter.accumulate_grad(np.ones(3))
        parameter.zero_grad()
        assert np.all(parameter.grad == 0)

    def test_data_stored_as_float64(self):
        parameter = Parameter(np.array([1, 2, 3], dtype=np.int32))
        assert parameter.data.dtype == np.float64
