"""Compute-path tests: arena semantics, bit-for-bit kernel equivalence
against the test oracle (``tests/nn/reference_layers.py``), steady-state
allocation freedom, the aliasing rule, and gradient checks.

Equivalence contract (see docs/performance.md): every kernel is bit-for-bit
identical to its oracle given the same input array, with two
documented-tolerance exceptions that re-associate the arithmetic and agree
to rounding error instead: fused BatchNorm (folded scale-shift, single-pass
statistics) and the stride-1 convolution input gradient (correlation with
the flipped kernel instead of a col2im scatter-add).  At the whole-model
level intermediate layouts differ too (the library keeps activations
contiguous), so reductions round differently in the last ulp and the curves
agree to the same tolerance.
"""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    GlobalAvgPool2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
    SoftmaxCrossEntropy,
    Tanh,
    Workspace,
    share_arenas,
)
from repro.models.mlp import mlp
from repro.models.resnet import cifar_resnet, resnet20
from repro.nn.functional import _patch_index
from tests.nn import reference_layers
from tests.nn.gradcheck import input_gradient_error, parameter_gradient_error
from tests.nn.reference_layers import as_reference

TOLERANCE = 1e-6


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ----------------------------------------------------------------------
# Workspace arena semantics
# ----------------------------------------------------------------------
class TestWorkspaceArena:
    def test_same_key_returns_same_buffer(self):
        workspace = Workspace()
        first = workspace.get("cols", (4, 8))
        second = workspace.get("cols", (4, 8))
        assert first is second
        assert workspace.allocations == 1

    def test_distinct_shapes_get_distinct_buffers(self):
        workspace = Workspace()
        a = workspace.get("cols", (4, 8))
        b = workspace.get("cols", (2, 8))
        assert a is not b
        assert workspace.allocations == 2
        # Revisiting either shape stays allocation-free.
        workspace.get("cols", (4, 8))
        workspace.get("cols", (2, 8))
        assert workspace.allocations == 2

    def test_dtype_is_part_of_the_key(self):
        workspace = Workspace()
        a = workspace.get("mask", (3,), dtype=bool)
        b = workspace.get("mask", (3,), dtype=np.float64)
        assert a.dtype == np.bool_ and b.dtype == np.float64
        assert workspace.allocations == 2

    def test_buffers_are_zeroed_on_creation_and_on_zero_flag(self):
        workspace = Workspace()
        buffer = workspace.get("scratch", (4,))
        assert np.all(buffer == 0.0)
        buffer[...] = 7.0
        assert np.all(workspace.get("scratch", (4,)) == 7.0)  # reuse keeps data
        assert np.all(workspace.get("scratch", (4,), zero=True) == 0.0)

    def test_nbytes_tracks_growth_and_clear(self):
        workspace = Workspace()
        workspace.get("a", (8,))
        assert workspace.nbytes == 8 * 8
        workspace.clear()
        assert workspace.nbytes == 0 and workspace.num_buffers == 0
        # The allocation counter is monotonic history, not current state.
        assert workspace.allocations == 1


# ----------------------------------------------------------------------
# Every module owns an arena from construction
# ----------------------------------------------------------------------
def _training_step(model, loss, inputs, labels):
    out = model.forward(inputs)
    loss.forward(out, labels)
    model.zero_grad()
    model.backward(loss.backward())


#: Models built directly — no runtime, no opt-in call — with an input shape.
MODEL_CASES = [
    pytest.param(
        lambda r: mlp(12, [8, 8], 4, dropout=0.2, batch_norm=True, rng=r), (6, 12), id="mlp"
    ),
    pytest.param(
        lambda r: cifar_resnet(8, num_classes=4, base_width=4, rng=r), (4, 3, 8, 8),
        id="cifar_resnet",
    ),
]


class TestModuleWorkspacePlumbing:
    def test_every_module_owns_a_distinct_arena(self, rng):
        model = resnet20(num_classes=10, rng=rng)
        arenas = {id(m._workspace) for _, m in model.named_modules()}
        count = sum(1 for _ in model.named_modules())
        assert len(arenas) == count  # one private arena each

    def test_twin_replicas_share_arenas_layer_by_layer(self, rng):
        model, donor = resnet20(num_classes=10, rng=rng), resnet20(num_classes=10, rng=rng)
        share_arenas(model, donor)
        for (_, layer), (_, twin) in zip(model.named_modules(), donor.named_modules()):
            assert layer._workspace is twin._workspace
        arenas = {id(m._workspace) for _, m in model.named_modules()}
        assert len(arenas) == sum(1 for _ in model.named_modules())
        loss, donor_loss = SoftmaxCrossEntropy(), SoftmaxCrossEntropy()
        share_arenas(loss, donor_loss)
        assert loss._workspace is donor_loss._workspace

    @pytest.mark.parametrize(
        "make_model, make_donor, message",
        [
            (lambda r: mlp(4, (8,), 2, rng=r), lambda r: mlp(4, (8, 8), 2, rng=r),
             r"layer None \(NoneType\) faces '3' \(ReLU\)"),
            (
                lambda r: Sequential(Linear(4, 4, rng=r), ReLU()),
                lambda r: Sequential(Linear(4, 4, rng=r), Tanh()),
                r"layer '1' \(ReLU\) faces '1' \(Tanh\)",
            ),
            (lambda r: resnet20(num_classes=10, rng=r), lambda r: mlp(4, (8,), 2, rng=r), "cannot share"),
            (lambda r: SoftmaxCrossEntropy(), lambda r: ReLU(), "SoftmaxCrossEntropy"),
        ],
    )
    def test_different_trees_cannot_share(self, rng, make_model, make_donor, message):
        model, donor = make_model(rng), make_donor(rng)
        layers = [m for _, m in model.named_modules()] if hasattr(model, "named_modules") else [model]
        before = [layer._workspace for layer in layers]
        with pytest.raises(ValueError, match=message):
            share_arenas(model, donor)
        assert [layer._workspace for layer in layers] == before  # nothing bound

    def test_stats_aggregate_over_the_tree(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        model.forward(rng.normal(size=(3, 4)))
        stats = model.workspace_stats()
        assert stats["allocations"] > 0
        assert stats["nbytes"] > 0
        assert stats["buffers"] == stats["allocations"]


# ----------------------------------------------------------------------
# Bit-for-bit equivalence with the reference kernels
# ----------------------------------------------------------------------
def _pair(make_layer):
    """Two identically initialized layers: the oracle and the library's."""
    reference = as_reference(make_layer(np.random.default_rng(7)))
    production = make_layer(np.random.default_rng(7))
    return reference, production


def _forward_backward(layer, inputs, grad):
    output = layer.forward(inputs)
    layer.zero_grad()
    grad_input = layer.backward(grad)
    grads = {name: p.grad.copy() for name, p in layer.named_parameters()}
    return np.array(output, copy=True), np.array(grad_input, copy=True), grads


#: (id, builder, input shape, grad_input exact?).  Stride-1 convolutions
#: compute the input gradient as a correlation with the flipped kernel,
#: which reduces in one matmul instead of per offset — rounding-error
#: agreement (documented tolerance); everything else is bit-exact, as are
#: conv outputs and parameter gradients in every geometry.
LAYER_CASES = [
    ("linear", lambda r: Linear(6, 4, rng=r), (3, 6), True),
    ("conv3x3_pad", lambda r: Conv2d(2, 5, 3, stride=1, padding=1, rng=r), (2, 2, 8, 8), False),
    ("conv1x1_s1", lambda r: Conv2d(3, 4, 1, stride=1, padding=0, rng=r), (2, 3, 8, 8), False),
    ("conv1x1_s2", lambda r: Conv2d(3, 4, 1, stride=2, padding=0, rng=r), (2, 3, 8, 8), True),
    ("conv3x3_s2", lambda r: Conv2d(2, 4, 3, stride=2, padding=1, rng=r), (2, 2, 8, 8), True),
    ("relu", lambda r: ReLU(), (4, 6), True),
    ("leaky_relu", lambda r: LeakyReLU(0.1), (4, 6), True),
    ("sigmoid", lambda r: Sigmoid(), (4, 6), True),
    ("tanh", lambda r: Tanh(), (4, 6), True),
    ("maxpool", lambda r: MaxPool2d(2, stride=2), (2, 3, 8, 8), True),
    ("avgpool", lambda r: AvgPool2d(2, stride=2, padding=1), (2, 3, 8, 8), True),
    ("global_avgpool", lambda r: GlobalAvgPool2d(), (2, 3, 6, 6), True),
]


class TestBitForBitEquivalence:
    @pytest.mark.parametrize(
        "make_layer,input_shape,grad_input_exact",
        [case[1:] for case in LAYER_CASES],
        ids=[case[0] for case in LAYER_CASES],
    )
    def test_layer_matches_reference_exactly(
        self, make_layer, input_shape, grad_input_exact, rng
    ):
        reference, workspaced = _pair(make_layer)
        inputs = rng.normal(size=input_shape)
        grad = rng.normal(size=reference.forward(inputs).shape)

        expected = _forward_backward(reference, inputs, grad)
        # Two rounds through the workspace path: the second reuses every
        # buffer, which is where stale-state bugs would show up.
        for _ in range(2):
            out, grad_input, grads = _forward_backward(workspaced, inputs, grad)
            assert np.array_equal(expected[0], out)
            if grad_input_exact:
                assert np.array_equal(expected[1], grad_input)
            else:
                np.testing.assert_allclose(
                    expected[1], grad_input, rtol=1e-12, atol=1e-14
                )
            for name, value in expected[2].items():
                assert np.array_equal(value, grads[name]), name

    @pytest.mark.parametrize("cls,shape", [(BatchNorm1d, (16, 5)), (BatchNorm2d, (4, 5, 6, 6))])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_fused_batchnorm_matches_to_documented_tolerance(
        self, cls, shape, training, rng
    ):
        """Fused BN re-associates the arithmetic: rounding-error agreement."""
        reference, workspaced = _pair(lambda r: cls(shape[1]))
        if not training:
            warm = rng.normal(loc=1.0, size=shape) * 2.0
            for layer in (reference, workspaced):
                layer.forward(warm)  # identical running statistics
                layer.eval()
        inputs = np.random.default_rng(3).normal(size=shape)
        grad = np.random.default_rng(4).normal(size=shape)

        # Two rounds each (the second reuses every workspace buffer), with
        # the running statistics compared round for round.
        for _ in range(2):
            expected = _forward_backward(reference, inputs, grad)
            out, grad_input, grads = _forward_backward(workspaced, inputs, grad)
            np.testing.assert_allclose(expected[0], out, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(expected[1], grad_input, rtol=1e-9, atol=1e-13)
            for name, value in expected[2].items():
                np.testing.assert_allclose(
                    value, grads[name], rtol=1e-9, atol=1e-13, err_msg=name
                )
            for name, buffer in reference.buffers().items():
                np.testing.assert_allclose(
                    buffer, dict(workspaced.buffers())[name], rtol=1e-12, err_msg=name
                )

    @pytest.mark.parametrize("cls,shape", [(BatchNorm1d, (16, 5)), (BatchNorm2d, (4, 5, 6, 6))])
    def test_batchnorm_train_eval_train_reuses_one_buffer_set(self, cls, shape, rng):
        """Mode switches change which statistics are used, not which buffers."""
        reference, layer = _pair(lambda r: cls(shape[1]))
        grad = rng.normal(size=shape)
        counts = []
        for training in (True, False, True):
            inputs = rng.normal(loc=0.5, size=shape)
            for bn in (reference, layer):
                bn.train(training)
            expected = _forward_backward(reference, inputs, grad)
            out, grad_input, grads = _forward_backward(layer, inputs, grad)
            np.testing.assert_allclose(expected[0], out, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(expected[1], grad_input, rtol=1e-9, atol=1e-13)
            for name, value in expected[2].items():
                np.testing.assert_allclose(value, grads[name], rtol=1e-9, atol=1e-13)
            for name, buffer in reference.buffers().items():
                np.testing.assert_allclose(buffer, layer.buffers()[name], rtol=1e-12)
            counts.append(layer.workspace_stats()["allocations"])
        # Eval backward skips the training-only scratch, so it adds nothing.
        assert counts == [counts[0]] * 3

    def test_dropout_matches_reference_exactly(self):
        reference = reference_layers.Dropout(0.4, rng=np.random.default_rng(11))
        workspaced = Dropout(0.4, rng=np.random.default_rng(11))
        inputs = np.random.default_rng(0).normal(size=(8, 8))
        grad = np.random.default_rng(1).normal(size=(8, 8))
        for _ in range(2):  # identical RNG consumption on both paths
            expected = _forward_backward(reference, inputs, grad)
            actual = _forward_backward(workspaced, inputs, grad)
            assert np.array_equal(expected[0], actual[0])
            assert np.array_equal(expected[1], actual[1])

    def test_residual_matches_reference_exactly(self, rng):
        def make(r):
            return Sequential(
                Residual(
                    Sequential(Conv2d(3, 3, 3, padding=1, bias=False, rng=r), BatchNorm2d(3), ReLU()),
                ),
                ReLU(),
            )

        reference, workspaced = _pair(make)
        inputs = rng.normal(size=(2, 3, 6, 6))
        grad = rng.normal(size=(2, 3, 6, 6))
        expected = _forward_backward(reference, inputs, grad)
        actual = _forward_backward(workspaced, inputs, grad)
        # Contains a BatchNorm, so tolerance rather than equality.
        np.testing.assert_allclose(expected[0], actual[0], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(expected[1], actual[1], rtol=1e-9, atol=1e-12)

    def test_softmax_cross_entropy_matches_exactly(self, rng):
        reference = reference_layers.SoftmaxCrossEntropy()
        workspaced = SoftmaxCrossEntropy()
        logits = rng.normal(size=(6, 9))
        labels = rng.integers(0, 9, size=6)
        expected_loss = reference.forward(logits, labels)
        expected_grad = reference.backward()
        for _ in range(2):
            assert workspaced.forward(logits, labels) == expected_loss
            assert np.array_equal(workspaced.backward(), expected_grad)

    def test_whole_model_agrees_to_documented_tolerance(self, rng):
        """Oracle and library resnets agree to rounding error."""
        reference = as_reference(resnet20(num_classes=10, rng=np.random.default_rng(42)))
        workspaced = resnet20(num_classes=10, rng=np.random.default_rng(42))
        loss_ref, loss_ws = reference_layers.SoftmaxCrossEntropy(), SoftmaxCrossEntropy()
        inputs = rng.normal(size=(4, 3, 12, 12))
        labels = rng.integers(0, 10, size=4)

        out_ref = reference.forward(inputs)
        out_ws = workspaced.forward(inputs)
        np.testing.assert_allclose(out_ref, out_ws, rtol=1e-9, atol=1e-12)
        value_ref = loss_ref.forward(out_ref, labels)
        value_ws = loss_ws.forward(out_ws, labels)
        assert value_ws == pytest.approx(value_ref, rel=1e-12)
        reference.zero_grad()
        workspaced.zero_grad()
        grad_ref = reference.backward(loss_ref.backward())
        grad_ws = workspaced.backward(loss_ws.backward())
        np.testing.assert_allclose(grad_ref, grad_ws, rtol=1e-6, atol=1e-12)


# ----------------------------------------------------------------------
# Dtype handling of the functional kernels
# ----------------------------------------------------------------------
class TestFunctionalDtypes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_im2col_col2im_respect_dtype(self, dtype, rng):
        from repro.nn.functional import col2im, im2col

        images = rng.normal(size=(2, 3, 6, 6)).astype(dtype)
        cols = im2col(images, 3, 3, stride=1, padding=1)
        assert cols.dtype == dtype
        back = col2im(cols, images.shape, 3, 3, stride=1, padding=1)
        assert back.dtype == dtype


# ----------------------------------------------------------------------
# Steady-state allocation freedom
# ----------------------------------------------------------------------
class TestAllocationFreedom:
    def test_resnet_step_allocates_nothing_after_warmup(self, rng):
        model = resnet20(num_classes=10, rng=np.random.default_rng(0))
        loss = SoftmaxCrossEntropy()
        inputs = rng.normal(size=(4, 3, 12, 12))
        labels = rng.integers(0, 10, size=4)

        def step():
            out = model.forward(inputs)
            loss.forward(out, labels)
            model.zero_grad()
            model.backward(loss.backward())

        step()  # warm-up allocates every buffer and builds every patch index once
        baseline = model.workspace_stats()["allocations"]
        assert baseline > 0
        index_builds = _patch_index.cache_info().misses
        for _ in range(3):
            step()
        assert model.workspace_stats()["allocations"] == baseline
        assert loss._workspace.allocations == len(loss._workspace._buffers)
        assert _patch_index.cache_info().misses == index_builds

    @pytest.mark.parametrize("build,input_shape", MODEL_CASES)
    def test_directly_built_model_freezes_allocations_after_one_step(
        self, build, input_shape, rng
    ):
        model, loss = build(rng), SoftmaxCrossEntropy()
        inputs = rng.normal(size=input_shape)
        labels = rng.integers(0, 4, size=input_shape[0])
        _training_step(model, loss, inputs, labels)
        baseline = model.workspace_stats()["allocations"]
        assert baseline > 0
        for _ in range(3):
            _training_step(model, loss, inputs, labels)
        assert model.workspace_stats()["allocations"] == baseline

    def test_ragged_final_batch_keeps_one_buffer_set_per_shape(self, rng):
        """An epoch's short last batch adds its own buffers once; returning
        to the full batch reuses the first set and still matches the oracle."""
        def build(r):
            return mlp(12, [8], 4, batch_norm=True, rng=r)

        reference, model = _pair(build)
        full, ragged = rng.normal(size=(8, 12)), rng.normal(size=(3, 12))
        grads = {8: rng.normal(size=(8, 4)), 3: rng.normal(size=(3, 4))}
        counts = []
        for inputs in (full, ragged, full, ragged, full):
            grad = grads[inputs.shape[0]]
            expected = _forward_backward(reference, inputs, grad)
            out, grad_input, _ = _forward_backward(model, inputs, grad)
            np.testing.assert_allclose(expected[0], out, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(expected[1], grad_input, rtol=1e-9, atol=1e-13)
            counts.append(model.workspace_stats()["allocations"])
        assert counts[0] < counts[1]  # the ragged shape's buffers, once
        assert counts[1:] == [counts[1]] * 4  # then frozen, whichever shape comes

    def test_alternating_batch_sizes_stay_allocation_free_once_seen(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        small = rng.normal(size=(2, 2, 6, 6))
        large = rng.normal(size=(4, 2, 6, 6))
        for inputs in (small, large):  # warm both shapes
            layer.backward(np.ones_like(layer.forward(inputs)))
        baseline = layer.workspace_stats()["allocations"]
        for inputs in (small, large, small, large):
            layer.backward(np.ones_like(layer.forward(inputs)))
        assert layer.workspace_stats()["allocations"] == baseline


# ----------------------------------------------------------------------
# The aliasing rule (documented on repro.nn.Module)
# ----------------------------------------------------------------------
class TestAliasingRule:
    """What a layer returns is a view of its own arena, valid until that
    layer's next forward/backward; different layers never share storage."""

    def test_returned_arrays_are_arena_views_overwritten_by_the_next_call(self, rng):
        layer = Linear(4, 3, rng=rng)
        first_in, second_in = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        first = layer.forward(first_in)
        kept = first.copy()
        assert any(
            np.shares_memory(first, buffer) for buffer in layer._workspace._buffers.values()
        )
        second = layer.forward(second_in)
        assert np.shares_memory(first, second)  # same storage, new values
        assert not np.array_equal(kept, first)
        grad = layer.backward(np.ones((2, 3)))
        assert grad.any()
        assert np.shares_memory(grad, layer.backward(np.zeros((2, 3))))
        assert not grad.any()  # the zero gradient's result replaced it

    def test_an_output_survives_another_layers_forward_and_backward(self, rng):
        """Holding layer A's output while layer B runs is what Sequential
        and both branches of a Residual rely on."""
        first, second = Linear(4, 4, rng=rng), Linear(4, 4, rng=rng)
        held = first.forward(rng.normal(size=(2, 4)))
        snapshot = held.copy()
        second.forward(held)
        second.backward(np.ones((2, 4)))
        assert np.array_equal(held, snapshot)

    @pytest.mark.parametrize("build,input_shape", MODEL_CASES)
    def test_no_two_layers_share_storage(self, build, input_shape, rng):
        model = build(rng)
        _training_step(
            model,
            SoftmaxCrossEntropy(),
            rng.normal(size=input_shape),
            rng.integers(0, 4, size=input_shape[0]),
        )
        spans = []
        for _, module in model.named_modules():
            for buffer in module._workspace._buffers.values():
                start = buffer.__array_interface__["data"][0]
                spans.append((start, start + buffer.nbytes))
        spans.sort()
        assert len(spans) == model.workspace_stats()["buffers"] > 0
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start  # address ranges are pairwise disjoint


# ----------------------------------------------------------------------
# Gradient checks
# ----------------------------------------------------------------------
class TestWorkspaceGradients:
    @pytest.mark.parametrize(
        "make_layer,input_shape",
        [
            (lambda r: Linear(4, 3, rng=r), (3, 4)),
            (lambda r: Conv2d(2, 3, 3, stride=1, padding=1, rng=r), (2, 2, 4, 4)),
            (lambda r: MaxPool2d(2, stride=2), (2, 2, 4, 4)),
            (lambda r: GlobalAvgPool2d(), (3, 4, 5, 5)),
        ],
        ids=["linear", "conv", "maxpool", "gap"],
    )
    def test_input_gradients_match_numerical(self, make_layer, input_shape, rng):
        layer = make_layer(rng)
        inputs = np.random.default_rng(5).normal(size=input_shape)
        assert input_gradient_error(layer, inputs) < TOLERANCE

    def test_conv_parameter_gradients_match_numerical(self, rng):
        layer = Conv2d(2, 3, 3, stride=1, padding=1, rng=rng)
        inputs = np.random.default_rng(5).normal(size=(2, 2, 4, 4))
        assert parameter_gradient_error(layer, inputs) < TOLERANCE

    def test_fused_batchnorm_gradients_match_numerical(self, rng):
        for layer, shape in ((BatchNorm1d(5), (8, 5)), (BatchNorm2d(3), (4, 3, 3, 3))):
            inputs = np.random.default_rng(5).normal(size=shape)
            assert input_gradient_error(layer, inputs) < 1e-5
            assert parameter_gradient_error(layer, inputs) < 1e-5

