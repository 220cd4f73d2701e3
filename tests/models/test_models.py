"""Tests for the model builders and the registry."""

import numpy as np
import pytest

from repro.models import (
    cifar_resnet,
    downsized_alexnet,
    logistic_regression,
    mlp,
    resnet20,
    resnet50,
    resnet110,
)
from repro.models.registry import MODELS, ModelSpec, register_model
from repro.nn import Conv2d, Linear, SoftmaxCrossEntropy


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def forward_backward(model, inputs, labels):
    loss = SoftmaxCrossEntropy()
    logits = model.forward(inputs)
    value = loss.forward(logits, labels)
    model.backward(loss.backward())
    return logits, value


class TestAlexNet:
    def test_output_shape_and_structure(self, rng):
        model = downsized_alexnet(num_classes=10, image_size=16, width=4, fc_width=16, rng=rng)
        inputs = rng.normal(size=(2, 3, 16, 16))
        logits, loss = forward_backward(model, inputs, np.array([0, 1]))
        assert logits.shape == (2, 10)
        assert np.isfinite(loss)
        conv_layers = [m for _, m in model.named_modules() if isinstance(m, Conv2d)]
        linear_layers = [m for _, m in model.named_modules() if isinstance(m, Linear)]
        # The paper's downsized AlexNet: 3 conv layers and 2 FC layers.
        assert len(conv_layers) == 3
        assert len(linear_layers) == 2

    def test_fully_connected_stage_dominates_parameters(self, rng):
        """The property the paper's communication analysis relies on."""
        model = downsized_alexnet(num_classes=10, image_size=32, width=32, fc_width=256, rng=rng)
        parameters = model.parameters()
        fc_parameters = sum(
            parameter.size
            for name, parameter in parameters.items()
            if int(name.split(".")[0]) >= 10
        )
        assert fc_parameters > 0.5 * model.num_parameters()

    def test_small_images_rejected(self, rng):
        with pytest.raises(ValueError):
            downsized_alexnet(image_size=4, rng=rng)

    def test_dropout_disabled_variant(self, rng):
        model = downsized_alexnet(image_size=16, width=4, fc_width=8, dropout=0.0, rng=rng)
        inputs = rng.normal(size=(1, 3, 16, 16))
        first = model.forward(inputs)
        second = model.forward(inputs)
        assert np.allclose(first, second)


class TestResNets:
    def test_cifar_resnet_depth_validation(self, rng):
        with pytest.raises(ValueError):
            cifar_resnet(depth=13, rng=rng)
        with pytest.raises(ValueError):
            cifar_resnet(depth=20, base_width=0, rng=rng)

    def test_resnet20_trains_forward_backward(self, rng):
        model = resnet20(num_classes=7, base_width=4, rng=rng)
        inputs = rng.normal(size=(2, 3, 8, 8))
        logits, loss = forward_backward(model, inputs, np.array([0, 6]))
        assert logits.shape == (2, 7)
        assert np.isfinite(loss)

    def test_deeper_resnets_have_more_parameters(self, rng):
        shallow = resnet20(num_classes=10, base_width=4, rng=np.random.default_rng(0))
        deep = cifar_resnet(depth=32, num_classes=10, base_width=4, rng=np.random.default_rng(0))
        assert deep.num_parameters() > shallow.num_parameters()

    def test_resnet110_builder_depth(self, rng):
        # Building the full ResNet-110 is feasible; a forward pass on a tiny
        # width keeps the test fast while checking the block arithmetic.
        model = resnet110(num_classes=5, base_width=2, rng=rng)
        logits = model.forward(rng.normal(size=(1, 3, 8, 8)))
        assert logits.shape == (1, 5)
        conv_count = sum(1 for _, m in model.named_modules() if isinstance(m, Conv2d))
        # 110 = 6n+2 with n=18: 108 block convolutions + stem (plus projections).
        assert conv_count >= 109

    def test_resnet50_bottleneck_structure(self, rng):
        model = resnet50(num_classes=6, base_width=4, rng=rng)
        logits = model.forward(rng.normal(size=(1, 3, 8, 8)))
        assert logits.shape == (1, 6)

    def test_resnet50_invalid_stage_spec(self, rng):
        with pytest.raises(ValueError):
            resnet50(blocks_per_stage=(1, 2, 3), rng=rng)

    def test_no_hidden_fully_connected_layers(self, rng):
        """Pure-CNN property the paper's Section V-C analysis uses: the only
        Linear layer is the final classifier."""
        model = resnet20(num_classes=10, base_width=4, rng=rng)
        linear_layers = [m for _, m in model.named_modules() if isinstance(m, Linear)]
        assert len(linear_layers) == 1


class TestMlp:
    def test_mlp_shapes(self, rng):
        model = mlp(input_dim=12, hidden_dims=(8, 6), num_classes=3, rng=rng)
        logits = model.forward(rng.normal(size=(4, 12)))
        assert logits.shape == (4, 3)

    def test_logistic_regression_is_linear(self, rng):
        model = logistic_regression(input_dim=5, num_classes=2, rng=rng)
        assert len(list(model.named_parameters())) == 2

    def test_invalid_dimensions_rejected(self, rng):
        with pytest.raises(ValueError):
            mlp(input_dim=0, hidden_dims=(4,), num_classes=2, rng=rng)
        with pytest.raises(ValueError):
            mlp(input_dim=4, hidden_dims=(0,), num_classes=2, rng=rng)

    def test_batch_norm_and_dropout_options(self, rng):
        model = mlp(
            input_dim=6, hidden_dims=(8,), num_classes=2, dropout=0.2, batch_norm=True, rng=rng
        )
        logits = model.forward(rng.normal(size=(8, 6)))
        assert logits.shape == (8, 2)


class TestRegistry:
    def test_builtin_models_registered(self):
        names = set(MODELS)
        assert {"downsized_alexnet", "resnet110", "resnet50", "mlp"} <= names

    def test_build_model_applies_overrides(self, rng):
        model = MODELS["mlp"].build(rng=rng, input_dim=6, hidden_dims=(4,), num_classes=3)
        assert model.forward(rng.normal(size=(2, 6))).shape == (2, 3)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            MODELS["transformer"]

    def test_duplicate_registration_rejected(self):
        spec = ModelSpec(name="mlp", builder=mlp, description="duplicate")
        with pytest.raises(ValueError):
            register_model(spec)

    def test_spec_metadata(self):
        spec = MODELS["downsized_alexnet"]
        assert spec.has_fully_connected_hidden
        assert not MODELS["resnet110"].has_fully_connected_hidden

    def test_same_seed_builds_identical_models(self):
        first = MODELS["mlp"].build(rng=np.random.default_rng(7))
        second = MODELS["mlp"].build(rng=np.random.default_rng(7))
        for (name_a, param_a), (name_b, param_b) in zip(
            first.named_parameters(), second.named_parameters()
        ):
            assert name_a == name_b
            assert np.allclose(param_a.data, param_b.data)
