"""Tests for the Module base class, Sequential/Residual containers and losses."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    Identity,
    Linear,
    ReLU,
    Residual,
    Sequential,
    SoftmaxCrossEntropy,
)
from repro.nn.functional import softmax
from tests.nn.gradcheck import input_gradient_error, parameter_gradient_error


@pytest.fixture
def rng():
    return np.random.default_rng(2)


@pytest.fixture
def small_net(rng):
    return Sequential(Linear(6, 8, rng=rng), ReLU(), BatchNorm1d(8), Linear(8, 3, rng=rng))


class TestModuleState:
    def test_named_parameters_are_hierarchical(self, small_net):
        names = list(dict(small_net.named_parameters()))
        assert "0.weight" in names
        assert "3.bias" in names

    def test_state_dict_round_trip(self, small_net, rng):
        state = small_net.state_dict()
        clone = Sequential(Linear(6, 8, rng=rng), ReLU(), BatchNorm1d(8), Linear(8, 3, rng=rng))
        clone.load_state_dict(state)
        inputs = rng.normal(size=(4, 6))
        small_net.eval()
        clone.eval()
        assert np.allclose(small_net.forward(inputs), clone.forward(inputs))

    def test_state_dict_includes_buffers(self, small_net):
        assert "2.running_mean" in small_net.state_dict()

    def test_load_rejects_unknown_keys(self, small_net):
        state = small_net.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            small_net.load_state_dict(state)

    def test_load_rejects_missing_keys_when_strict(self, small_net):
        state = small_net.state_dict()
        state.pop("0.weight")
        with pytest.raises(KeyError):
            small_net.load_state_dict(state)
        small_net.load_state_dict(state, strict=False)

    def test_load_rejects_shape_mismatch(self, small_net):
        state = small_net.state_dict()
        state["0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            small_net.load_state_dict(state)

    def test_zero_grad_resets_all_gradients(self, small_net, rng):
        loss = SoftmaxCrossEntropy()
        logits = small_net.forward(rng.normal(size=(4, 6)))
        loss.forward(logits, np.array([0, 1, 2, 0]))
        small_net.backward(loss.backward())
        assert any(np.any(p.grad != 0) for _, p in small_net.named_parameters())
        small_net.zero_grad()
        assert all(np.all(p.grad == 0) for _, p in small_net.named_parameters())

    def test_gradients_and_apply_gradients_round_trip(self, small_net, rng):
        loss = SoftmaxCrossEntropy()
        logits = small_net.forward(rng.normal(size=(4, 6)))
        loss.forward(logits, np.array([0, 1, 2, 0]))
        small_net.backward(loss.backward())
        grads = small_net.gradients()
        small_net.zero_grad()
        small_net.apply_gradients(grads)
        assert np.allclose(small_net.gradients()["0.weight"], grads["0.weight"])

    def test_apply_gradients_validates_names_and_shapes(self, small_net):
        with pytest.raises(KeyError):
            small_net.apply_gradients({"missing": np.zeros(2)})
        with pytest.raises(ValueError):
            small_net.apply_gradients({"0.weight": np.zeros((1, 1))})

    def test_num_parameters_counts_scalars(self, rng):
        net = Sequential(Linear(3, 2, rng=rng))
        assert net.num_parameters() == 3 * 2 + 2

    def test_train_eval_propagates(self, small_net):
        small_net.eval()
        assert all(not module.training for _, module in small_net.named_modules())
        small_net.train()
        assert all(module.training for _, module in small_net.named_modules())


class TestSequential:
    def test_indexing_and_iteration(self, small_net):
        assert isinstance(small_net[0], Linear)
        assert len(small_net) == 4
        assert len(list(iter(small_net))) == 4

    def test_append(self, rng):
        net = Sequential(Linear(2, 2, rng=rng))
        net.append(ReLU())
        assert len(net) == 2

    def test_rejects_non_modules(self):
        with pytest.raises(TypeError):
            Sequential(Linear(2, 2), "not-a-module")

    def test_backward_composes_in_reverse(self, rng):
        net = Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        inputs = rng.normal(size=(3, 4))
        assert input_gradient_error(net, inputs) < 1e-6
        assert parameter_gradient_error(net, inputs) < 1e-6


class TestResidual:
    def test_identity_shortcut_adds_input(self, rng):
        body = Sequential(Linear(4, 4, rng=rng))
        block = Residual(body)
        inputs = rng.normal(size=(2, 4))
        expected = body.forward(inputs) + inputs
        assert np.allclose(block.forward(inputs), expected)

    def test_gradients_flow_through_both_branches(self, rng):
        block = Residual(Sequential(Linear(4, 4, rng=rng), ReLU()))
        inputs = rng.normal(size=(3, 4)) + 0.2
        assert input_gradient_error(block, inputs) < 1e-5
        assert parameter_gradient_error(block, inputs) < 1e-5

    def test_projection_shortcut(self, rng):
        block = Residual(Sequential(Linear(4, 2, rng=rng)), Sequential(Linear(4, 2, rng=rng)))
        assert block.forward(rng.normal(size=(3, 4))).shape == (3, 2)

    def test_identity_module_passthrough(self, rng):
        identity = Identity()
        inputs = rng.normal(size=(2, 3))
        assert np.allclose(identity.forward(inputs), inputs)
        assert np.allclose(identity.backward(inputs), inputs)


class TestLosses:
    def test_cross_entropy_of_uniform_prediction(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((4, 10))
        value = loss.forward(logits, np.array([0, 1, 2, 3]))
        assert value == pytest.approx(np.log(10))

    def test_cross_entropy_gradient_formula(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(5, 3))
        labels = np.array([0, 1, 2, 1, 0])
        loss.forward(logits, labels)
        grad = loss.backward()
        probabilities = softmax(logits, axis=1)
        expected = probabilities.copy()
        expected[np.arange(5), labels] -= 1.0
        assert np.allclose(grad, expected / 5)

    def test_cross_entropy_gradient_matches_numerical(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 3, 2])
        loss.forward(logits, labels)
        analytic = loss.backward()
        epsilon = 1e-6
        numerical = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                logits[i, j] += epsilon
                plus = loss.forward(logits, labels)
                logits[i, j] -= 2 * epsilon
                minus = loss.forward(logits, labels)
                logits[i, j] += epsilon
                numerical[i, j] = (plus - minus) / (2 * epsilon)
        assert np.allclose(analytic, numerical, atol=1e-6)

    def test_cross_entropy_validates_shapes(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(ValueError):
            loss.forward(np.zeros(3), np.array([0]))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()
