"""Tests for the analog crossbar simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.imc import CrossbarArray, CrossbarConfig, CrossbarLinear, deploy_linear_layers
from repro.quant import QuantLinear, binarize_weight, fake_quantize_weight
from repro.quant.functional import QuantizedWeight
from repro.tensor import Tensor, manual_seed


def make_qw(rng, bits=8, shape=(12, 24)):
    if bits == 1:
        codes = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        return QuantizedWeight(codes=codes, scale=np.asarray(0.05), bits=1)
    qmax = 2 ** (bits - 1) - 1
    codes = rng.integers(-qmax, qmax + 1, size=shape).astype(np.float64)
    return QuantizedWeight(codes=codes, scale=np.asarray(0.01), bits=bits)


class TestIdealCrossbar:
    @pytest.mark.parametrize("bits", [1, 4, 8])
    def test_matches_digital_reference(self, rng, bits):
        qw = make_qw(rng, bits)
        arr = CrossbarArray(qw, CrossbarConfig.ideal(), rng)
        x = rng.normal(size=(6, 24))
        np.testing.assert_allclose(
            arr.matvec(x), arr.ideal_result(x), rtol=1e-9, atol=1e-12
        )

    def test_tiling_preserves_result(self, rng):
        qw = make_qw(rng, 8, shape=(8, 100))
        whole = CrossbarArray(qw, CrossbarConfig.ideal(tile_rows=128), rng)
        tiled = CrossbarArray(qw, CrossbarConfig.ideal(tile_rows=16), rng)
        assert tiled.n_tiles == 7
        x = rng.normal(size=(3, 100))
        np.testing.assert_allclose(whole.matvec(x), tiled.matvec(x), rtol=1e-9)

    def test_rejects_non_2d(self, rng):
        qw = QuantizedWeight(
            codes=np.ones(4), scale=np.asarray(1.0), bits=1
        )
        with pytest.raises(ValueError):
            CrossbarArray(qw, CrossbarConfig.ideal(), rng)

    def test_rejects_wrong_input_width(self, rng):
        arr = CrossbarArray(make_qw(rng), CrossbarConfig.ideal(), rng)
        with pytest.raises(ValueError):
            arr.matvec(rng.normal(size=(2, 7)))


class TestConverters:
    def test_adc_dac_error_small_at_8_bits(self, rng):
        qw = make_qw(rng, 8)
        arr = CrossbarArray(qw, CrossbarConfig(dac_bits=8, adc_bits=10), rng)
        x = rng.normal(size=(6, 24))
        ref = arr.ideal_result(x)
        rel = np.abs(arr.matvec(x) - ref).max() / np.abs(ref).max()
        assert rel < 0.1

    def test_coarse_adc_increases_error(self, rng):
        qw = make_qw(rng, 8)
        x = rng.normal(size=(6, 24))
        fine = CrossbarArray(qw, CrossbarConfig(dac_bits=None, adc_bits=12), rng)
        coarse = CrossbarArray(qw, CrossbarConfig(dac_bits=None, adc_bits=4), rng)
        ref = fine.ideal_result(x)
        err_fine = np.abs(fine.matvec(x) - ref).mean()
        err_coarse = np.abs(coarse.matvec(x) - ref).mean()
        assert err_coarse > err_fine


class TestNonIdealities:
    def test_conductance_variation_matches_algorithmic_model(self, rng):
        """Crossbar-level conductance variation behaves like the paper's
        multiplicative weight noise — the consistency argument that lets
        fault campaigns run at the algorithmic level."""
        qw = make_qw(rng, 8, shape=(16, 64))
        x = rng.normal(size=(32, 64))
        sigma = 0.05
        arr = CrossbarArray(
            qw, CrossbarConfig.ideal(sigma_conductance=sigma), np.random.default_rng(0)
        )
        ref = arr.ideal_result(x)
        errors = []
        for seed in range(12):
            a = CrossbarArray(
                qw,
                CrossbarConfig.ideal(sigma_conductance=sigma),
                np.random.default_rng(seed),
            )
            errors.append((a.matvec(x) - ref).std())
        observed = float(np.mean(errors))
        # Expected perturbation scale: conductance noise is applied to both
        # differential columns; magnitude comparable to sigma * |w| summed
        # in quadrature over the dot-product length.
        assert observed > 0.0
        per_weight = sigma * np.abs(qw.dequantize()).mean()
        lower = per_weight * np.sqrt(64) * np.abs(x).mean() * 0.3
        upper = per_weight * np.sqrt(64) * np.abs(x).mean() * 10.0
        assert lower < observed < upper

    def test_stuck_cells_change_result(self, rng):
        qw = make_qw(rng, 8)
        x = rng.normal(size=(4, 24))
        ideal = CrossbarArray(qw, CrossbarConfig.ideal(), np.random.default_rng(0))
        stuck = CrossbarArray(
            qw, CrossbarConfig.ideal(stuck_rate=0.3), np.random.default_rng(0)
        )
        assert not np.allclose(ideal.matvec(x), stuck.matvec(x))

    def test_energy_estimate_positive_and_scales(self, rng):
        qw = make_qw(rng, 8)
        arr = CrossbarArray(qw, CrossbarConfig.ideal(), rng)
        small = arr.energy_estimate(rng.normal(size=(1, 24)))
        large = arr.energy_estimate(rng.normal(size=(10, 24)))
        assert 0 < small < large


class TestCrossbarLinear:
    def test_ideal_deployment_matches_layer(self, rng):
        manual_seed(0)
        layer = QuantLinear(20, 6, weight_bits=8)
        x = Tensor(rng.normal(size=(4, 20)))
        ref = layer(x).data
        deployed = CrossbarLinear(layer, CrossbarConfig.ideal())
        np.testing.assert_allclose(deployed(x).data, ref, rtol=1e-9, atol=1e-12)

    def test_binary_layer_deployment(self, rng):
        manual_seed(0)
        layer = QuantLinear(20, 6, weight_bits=1)
        x = Tensor(rng.normal(size=(4, 20)))
        ref = layer(x).data
        deployed = CrossbarLinear(layer, CrossbarConfig.ideal())
        np.testing.assert_allclose(deployed(x).data, ref, rtol=1e-9, atol=1e-12)

    def test_deploy_swaps_all_linears(self, rng):
        model = nn.Sequential(
            QuantLinear(8, 8, weight_bits=8),
            nn.ReLU(),
            QuantLinear(8, 4, weight_bits=8),
        )
        count = deploy_linear_layers(model, CrossbarConfig.ideal())
        assert count == 2
        assert isinstance(model[0], CrossbarLinear)
        assert isinstance(model[2], CrossbarLinear)
        out = model(Tensor(rng.normal(size=(2, 8))))
        assert out.shape == (2, 4)


@given(st.integers(2, 8), st.integers(4, 40))
@settings(max_examples=15, deadline=None)
def test_property_ideal_crossbar_linearity(bits, rows):
    """Crossbar MVM is linear: f(a x1 + b x2) == a f(x1) + b f(x2)."""
    rng = np.random.default_rng(0)
    qmax = 2 ** (bits - 1) - 1
    codes = rng.integers(-qmax, qmax + 1, size=(6, rows)).astype(np.float64)
    qw = QuantizedWeight(codes=codes, scale=np.asarray(0.02), bits=bits)
    arr = CrossbarArray(qw, CrossbarConfig.ideal(), rng)
    x1, x2 = rng.normal(size=(2, 1, rows))
    combined = arr.matvec(2.0 * x1 - 3.0 * x2)
    separate = 2.0 * arr.matvec(x1) - 3.0 * arr.matvec(x2)
    np.testing.assert_allclose(combined, separate, rtol=1e-8, atol=1e-10)


class TestChipBatchedCrossbar:
    def _stacked_qw(self, rng, n_chips=3, bits=8, shape=(6, 40)):
        qmax = 2 ** (bits - 1) - 1
        codes = rng.integers(-qmax, qmax + 1, size=(n_chips,) + shape)
        return QuantizedWeight(
            codes=codes.astype(np.float64), scale=np.asarray(0.01), bits=bits
        )

    def test_matches_per_chip_arrays(self, rng):
        """One chip-batched array == programming each chip separately."""
        qw = self._stacked_qw(rng)
        cfg = CrossbarConfig(
            dac_bits=6, adc_bits=8, tile_rows=16,
            sigma_conductance=0.03, stuck_rate=0.05,
        )
        seeds = [5, 6, 7]
        batched = CrossbarArray(
            qw, cfg,
            rng=[np.random.default_rng(s) for s in seeds],
        )
        x = rng.normal(size=(4, 40))
        out = batched.matvec(x)
        assert out.shape == (3, 4, 6)
        for i, seed in enumerate(seeds):
            chip_qw = QuantizedWeight(
                codes=qw.codes[i], scale=qw.scale, bits=qw.bits
            )
            chip = CrossbarArray(chip_qw, cfg, rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(out[i], chip.matvec(x))

    def test_single_chip_stack(self, rng):
        qw = self._stacked_qw(rng, n_chips=1)
        arr = CrossbarArray(qw, CrossbarConfig.ideal(), rng)
        x = rng.normal(size=(2, 40))
        np.testing.assert_allclose(
            arr.matvec(x), arr.ideal_result(x), rtol=1e-9, atol=1e-12
        )

    def test_rejects_4d_codes(self, rng):
        qw = QuantizedWeight(
            codes=np.ones((2, 2, 2, 2)), scale=np.asarray(1.0), bits=1
        )
        with pytest.raises(ValueError):
            CrossbarArray(qw, CrossbarConfig.ideal(), rng)


class TestVectorizedTiling:
    def test_odd_tile_split_matches_reference_loop(self, rng):
        """Vectorized tiling reproduces the per-tile loop, including the
        narrower ADC full-scale of the short remainder tile."""
        qw = make_qw(rng, 8, shape=(5, 100))
        cfg = CrossbarConfig(dac_bits=None, adc_bits=6, tile_rows=16)
        arr = CrossbarArray(qw, cfg, rng)
        assert arr.n_tiles == 7  # 6 full tiles + a 4-row remainder
        x = rng.normal(size=(3, 100))
        # Reference: the straightforward per-tile loop.
        from repro.imc.crossbar import _uniform_quantize

        v = x * cfg.v_read
        delta_g = arr.g_pos - arr.g_neg
        x_max = np.abs(x).max()
        expected = np.zeros((3, 5))
        for start in range(0, 100, cfg.tile_rows):
            stop = min(start + cfg.tile_rows, 100)
            tile = v[:, start:stop] @ delta_g[start:stop]
            full_scale = cfg.v_read * x_max * (cfg.g_on - cfg.g_off) * (stop - start)
            expected += _uniform_quantize(tile, cfg.adc_bits, full_scale)
        lsb = (cfg.g_on - cfg.g_off) / qw.qmax
        expected = expected / (cfg.v_read * lsb) * float(np.asarray(qw.scale))
        np.testing.assert_array_equal(arr.matvec(x), expected)

    def test_tile_rows_larger_than_rows(self, rng):
        qw = make_qw(rng, 8, shape=(4, 10))
        arr = CrossbarArray(qw, CrossbarConfig.ideal(tile_rows=64), rng)
        assert arr.n_tiles == 1
        x = rng.normal(size=(2, 10))
        np.testing.assert_allclose(
            arr.matvec(x), arr.ideal_result(x), rtol=1e-9, atol=1e-12
        )
