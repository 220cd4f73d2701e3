"""Tests for the stateless numeric primitives (im2col, softmax, one-hot)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import (
    _patch_index,
    col2im,
    conv_output_size,
    im2col,
    log_softmax,
    one_hot,
    softmax,
)


def naive_im2col(images, kernel, stride, padding):
    """One row per (image, output y, output x), copied patch by patch."""
    n, c, h, w = images.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    padded = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    rows = []
    for image in range(n):
        for y in range(out_h):
            for x in range(out_w):
                top, left = y * stride, x * stride
                patch = padded[image, :, top : top + kernel, left : left + kernel]
                rows.append(patch.ravel())
    return np.array(rows, dtype=images.dtype)


class TestIm2ColAgainstNaiveLoop:
    """``im2col`` is pinned bit for bit to a loop that shares no primitive."""

    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_naive_loop(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
        height, width = 7, 9
        cases = itertools.product(
            [1, 3, 24], [1, 5], [np.float32, np.float64], [False, True], [False, True]
        )
        for channels, batch, dtype, transposed, buffers in cases:
            if transposed:
                images = rng.normal(size=(batch, height, width, channels))
                images = images.astype(dtype).transpose(0, 3, 1, 2)
            else:
                images = rng.normal(size=(batch, channels, height, width)).astype(dtype)
            expected = naive_im2col(images, kernel, stride, padding)
            kwargs = {}
            if buffers:
                kwargs["out"] = np.full(expected.shape, np.nan, dtype=dtype)
                if padding:
                    kwargs["padded"] = np.zeros(
                        (batch, channels, height + 2 * padding, width + 2 * padding), dtype
                    )
            cols = im2col(images, kernel, kernel, stride, padding, **kwargs)
            assert cols.dtype == dtype
            assert np.array_equal(cols, expected), (channels, batch, dtype, transposed, buffers)
            if buffers:
                assert cols is kwargs["out"]

    def test_interleaved_geometries_of_equal_size_keep_their_own_index(self):
        rng = np.random.default_rng(0)
        # Each pair holds the same number of elements in a different geometry.
        pairs = [
            (rng.normal(size=(2, 2, 4, 6)), rng.normal(size=(2, 2, 6, 4))),
            (rng.normal(size=(1, 4, 4, 4)), rng.normal(size=(1, 1, 8, 8))),
        ]
        for first, second in pairs:
            for images in (first, second, first, second):
                expected = naive_im2col(images, 3, 1, 1)
                assert np.array_equal(im2col(images, 3, 3, 1, 1), expected)
        assert not np.array_equal(_patch_index(2, 6, 8, 3, 3, 1), _patch_index(2, 8, 6, 3, 3, 1))

    def test_cached_index_is_read_only(self):
        index = _patch_index(3, 6, 6, 3, 3, 1)
        assert index is _patch_index(3, 6, 6, 3, 3, 1)
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 1

    def test_non_contiguous_out_is_rejected(self):
        images = np.zeros((2, 3, 6, 6))
        rows, columns = im2col(images, 3, 3, 1, 1).shape
        with pytest.raises(ValueError, match="C-contiguous"):
            im2col(images, 3, 3, 1, 1, out=np.empty((columns, rows)).T)


class TestConvOutputSize:
    def test_basic_geometry(self):
        assert conv_output_size(32, kernel=3, stride=1, padding=1) == 32
        assert conv_output_size(32, kernel=2, stride=2, padding=0) == 16
        assert conv_output_size(8, kernel=3, stride=2, padding=1) == 4

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            conv_output_size(2, kernel=5, stride=1, padding=0)


class TestIm2Col:
    def test_shape(self):
        images = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
        cols = im2col(images, 3, 3, stride=1, padding=1)
        assert cols.shape == (2 * 4 * 4, 3 * 3 * 3)

    def test_identity_kernel_recovers_pixels(self):
        images = np.arange(1 * 1 * 3 * 3, dtype=np.float64).reshape(1, 1, 3, 3)
        cols = im2col(images, 1, 1, stride=1, padding=0)
        assert np.allclose(cols.ravel(), images.ravel())

    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        rng = np.random.default_rng(0)
        images = rng.normal(size=(2, 3, 6, 6))
        cols = im2col(images, 3, 3, stride=2, padding=1)
        other = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * other))
        rhs = float(np.sum(images * col2im(other, images.shape, 3, 3, stride=2, padding=1)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        kernel=st.integers(min_value=1, max_value=3),
        stride=st.integers(min_value=1, max_value=2),
        padding=st.integers(min_value=0, max_value=2),
        size=st.integers(min_value=4, max_value=7),
    )
    def test_adjoint_property_holds_generally(self, kernel, stride, padding, size):
        rng = np.random.default_rng(42)
        images = rng.normal(size=(1, 2, size, size))
        cols = im2col(images, kernel, kernel, stride=stride, padding=padding)
        other = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * other))
        rhs = float(
            np.sum(images * col2im(other, images.shape, kernel, kernel, stride, padding))
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        probabilities = softmax(logits)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_numerical_stability_with_large_logits(self):
        logits = np.array([[1000.0, 1001.0]])
        probabilities = softmax(logits)
        assert np.all(np.isfinite(probabilities))

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 7))
        assert np.allclose(log_softmax(logits), np.log(softmax(logits)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=8,
        )
    )
    def test_probabilities_valid_for_arbitrary_logits(self, row):
        probabilities = softmax(np.array([row]))
        assert np.all(probabilities >= 0)
        assert probabilities.sum() == pytest.approx(1.0)


class TestBufferReuse:
    """The optional out=/padded=/stage= arguments reuse caller storage."""

    def test_im2col_writes_into_caller_buffer(self):
        rng = np.random.default_rng(0)
        images = rng.normal(size=(2, 3, 6, 6))
        expected = im2col(images, 3, 3, stride=1, padding=1)
        out = np.empty_like(expected)
        padded = np.zeros((2, 3, 8, 8))
        result = im2col(images, 3, 3, stride=1, padding=1, out=out, padded=padded)
        assert result is out
        assert np.array_equal(result, expected)
        # Reuse with different content: borders of the padded scratch stay
        # zero, so a second call is still exact.
        other = rng.normal(size=(2, 3, 6, 6))
        again = im2col(other, 3, 3, stride=1, padding=1, out=out, padded=padded)
        assert np.array_equal(again, im2col(other, 3, 3, stride=1, padding=1))

    def test_im2col_zero_padding_skips_the_padded_copy(self):
        rng = np.random.default_rng(1)
        images = rng.normal(size=(1, 2, 5, 5))
        expected = im2col(images, 2, 2, stride=1, padding=0)
        out = np.empty_like(expected)
        result = im2col(images, 2, 2, stride=1, padding=0, out=out, padded=None)
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_col2im_accumulates_into_reused_scratch(self, padding):
        rng = np.random.default_rng(2)
        image_shape = (2, 3, 6, 6)
        cols = rng.normal(size=im2col(np.zeros(image_shape), 3, 3, 1, padding).shape)
        expected = col2im(cols, image_shape, 3, 3, stride=1, padding=padding)
        scratch = np.full((2, 3, 6 + 2 * padding, 6 + 2 * padding), 99.0)
        out_size = conv_output_size(6, 3, 1, padding)
        stage = np.empty((2, 3, 3, 3, out_size, out_size))
        for _ in range(2):  # dirty scratch must be cleared on every call
            result = col2im(
                cols, image_shape, 3, 3, stride=1, padding=padding,
                padded=scratch, stage=stage,
            )
            assert np.array_equal(result, expected)

    def test_col2im_padding_zero_reuses_scratch_as_result(self):
        rng = np.random.default_rng(3)
        image_shape = (1, 2, 4, 4)
        cols = rng.normal(size=im2col(np.zeros(image_shape), 2, 2, 2, 0).shape)
        scratch = np.empty(image_shape)
        result = col2im(cols, image_shape, 2, 2, stride=2, padding=0, padded=scratch)
        assert result is scratch
        assert np.array_equal(
            result, col2im(cols, image_shape, 2, 2, stride=2, padding=0)
        )


class TestOneHot:
    def test_encoding(self):
        encoded = one_hot(np.array([0, 2, 1]), num_classes=3)
        assert np.allclose(encoded, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))

    def test_defaults_to_float64(self):
        assert one_hot(np.array([0, 1]), num_classes=2).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_respects_requested_dtype(self, dtype):
        encoded = one_hot(np.array([1, 0]), num_classes=2, dtype=dtype)
        assert encoded.dtype == dtype
        assert np.array_equal(encoded, np.array([[0, 1], [1, 0]], dtype=dtype))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            one_hot(np.array([0, 3]), num_classes=3)

    def test_rejects_non_vector_labels(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int), num_classes=3)
