"""Tests for quantization primitives and their STE gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import (
    QuantizedWeight,
    binarize_activation,
    binarize_weight,
    fake_quantize_activation,
    fake_quantize_weight,
    pact_quantize,
    sign_with_zero_to_one,
)
from repro.tensor import Tensor


class TestSign:
    def test_zero_maps_to_one(self):
        out = sign_with_zero_to_one(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out, [-1.0, 1.0, 1.0])

    def test_same_bits_as_masked_assignment(self, rng):
        values = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, -1e308],
            rng.normal(size=64),
        ]).reshape(2, 37)
        expected = np.sign(values)
        expected[expected == 0] = 1.0
        out = sign_with_zero_to_one(values)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


class TestBinarizeWeight:
    def test_codes_are_pm_one(self, rng):
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        _, record = binarize_weight(w)
        assert set(np.unique(record.codes)) <= {-1.0, 1.0}
        assert record.bits == 1

    def test_scale_is_per_filter_mean_abs(self, rng):
        w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        out, record = binarize_weight(w)
        expected = np.abs(w.data).mean(axis=1, keepdims=True)
        np.testing.assert_allclose(record.scale, expected)
        np.testing.assert_allclose(out.data, record.codes * expected)

    def test_ste_gradient_clipped(self):
        w = Tensor(np.array([[0.5, -2.0, 0.9, 1.5]]), requires_grad=True)
        out, record = binarize_weight(w)
        out.sum().backward()
        alpha = float(record.scale.item())
        np.testing.assert_allclose(w.grad, [[alpha, 0.0, alpha, 0.0]])

    def test_fault_hook_applied(self, rng):
        w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        out, record = binarize_weight(w, fault=lambda qw: -qw.codes)
        np.testing.assert_allclose(out.data, -record.codes * record.scale)

    def test_preserves_sign_pattern(self, rng):
        w = Tensor(rng.normal(size=(3, 5)))
        out, _ = binarize_weight(w)
        np.testing.assert_array_equal(np.sign(out.data), sign_with_zero_to_one(w.data))


class TestBinarizeActivation:
    def test_output_binary(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = binarize_activation(x)
        assert set(np.unique(out.data)) <= {-1.0, 1.0}

    def test_ste_hardtanh_gradient(self):
        x = Tensor(np.array([0.5, -2.0, -0.3, 1.5]), requires_grad=True)
        binarize_activation(x).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 1.0, 0.0])

    def test_pre_fault_changes_forward_not_backward_mask(self):
        x = Tensor(np.array([0.4, -0.4]), requires_grad=True)
        out = binarize_activation(x, pre_fault=lambda v: -v)
        np.testing.assert_array_equal(out.data, [-1.0, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])


class TestFakeQuantizeWeight:
    def test_code_range(self, rng):
        w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        _, record = fake_quantize_weight(w, 8)
        assert record.codes.max() <= 127 and record.codes.min() >= -127
        assert record.qmax == 127

    def test_max_weight_maps_to_max_code(self, rng):
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        _, record = fake_quantize_weight(w, 8)
        flat_idx = np.abs(w.data).argmax()
        assert abs(record.codes.ravel()[flat_idx]) == 127

    def test_quantization_error_bounded_by_half_lsb(self, rng):
        w = Tensor(rng.normal(size=(16, 16)), requires_grad=True)
        out, record = fake_quantize_weight(w, 8)
        lsb = float(record.scale)
        assert np.abs(out.data - w.data).max() <= lsb / 2 + 1e-12

    def test_ste_identity_gradient(self, rng):
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        out, _ = fake_quantize_weight(w, 8)
        out.sum().backward()
        np.testing.assert_allclose(w.grad, np.ones((3, 3)))

    def test_rejects_one_bit(self, rng):
        with pytest.raises(ValueError):
            fake_quantize_weight(Tensor(np.ones((2, 2))), 1)

    def test_all_zero_weight_safe(self):
        w = Tensor(np.zeros((3, 3)), requires_grad=True)
        out, _ = fake_quantize_weight(w, 8)
        np.testing.assert_array_equal(out.data, 0.0)

    @given(st.integers(2, 8))
    @settings(max_examples=7, deadline=None)
    def test_dequantize_matches_forward(self, bits):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(5, 5)))
        out, record = fake_quantize_weight(w, bits)
        np.testing.assert_allclose(out.data, record.dequantize())


class TestFakeQuantizeActivation:
    def test_levels(self):
        x = Tensor(np.linspace(-1, 2, 100), requires_grad=True)
        out = fake_quantize_activation(x, 2, max_val=1.0)
        assert len(np.unique(out.data)) <= 4
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_gradient_masked_outside_range(self):
        x = Tensor(np.array([-0.5, 0.5, 1.5]), requires_grad=True)
        fake_quantize_activation(x, 4, max_val=1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestPACT:
    def test_output_range_and_levels(self, rng):
        x = Tensor(rng.normal(scale=3.0, size=500), requires_grad=True)
        alpha = Tensor(np.array([2.0]), requires_grad=True)
        out = pact_quantize(x, alpha, 4)
        assert out.data.min() >= 0.0 and out.data.max() <= 2.0
        assert len(np.unique(out.data)) <= 16

    def test_alpha_gradient_counts_clipped(self):
        x = Tensor(np.array([0.5, 3.0, 5.0]), requires_grad=True)
        alpha = Tensor(np.array([2.0]), requires_grad=True)
        pact_quantize(x, alpha, 4).sum().backward()
        np.testing.assert_allclose(alpha.grad, [2.0])  # two inputs >= alpha
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 0.0])

    def test_invalid_alpha_raises(self):
        with pytest.raises(ValueError):
            pact_quantize(Tensor(np.ones(3)), Tensor(np.array([-1.0])), 4)


class TestQuantizedWeightRecord:
    def test_qmax_binary(self):
        qw = QuantizedWeight(codes=np.ones((2, 2)), scale=np.ones(1), bits=1)
        assert qw.qmax == 1

    def test_qmax_multibit(self):
        qw = QuantizedWeight(codes=np.ones((2, 2)), scale=np.ones(1), bits=4)
        assert qw.qmax == 7
