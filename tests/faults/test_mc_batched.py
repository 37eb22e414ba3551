"""Tests for MC-sample-batched Bayesian evaluation (the instance axis).

Under an active chip batch, ``mc_forward`` stacks the Monte Carlo sample
loop of a Bayesian evaluator into the chip-batched pass, so one forward
carries a ``chips x mc_samples`` instance axis; outside a chip batch it
loops the samples.  The contract is the chip-batched contract extended
one axis: per-chip metrics of the stacked engine must be
**bit-identical** to the per-cell oracle, which loops the samples (same
``SeedSequence``-derived per-sample streams, drawn in the serial order).
These tests pin that contract across all four task topologies, the
Bayesian methods, and every fault kind, plus the instance-axis
primitives and edge cases (budgets that split a scenario's chips, single
sample).
"""

import numpy as np
import pytest

from repro import nn
from repro.core import InvertedNorm
from repro.core.bayesian import BayesianClassifier, mc_forward
from repro.faults import (
    PER_CELL,
    FaultSpec,
    MonteCarloCampaign,
    WorkCell,
    additive_sweep,
    bitflip_sweep,
    evaluate_cell,
    evaluate_cells_stacked,
    multiplicative_sweep,
    uniform_sweep,
)
from repro.models import proposed, spatial_spindrop, spindrop
from repro.quant.layers import deploy_cache_disabled
from repro.tensor import Tensor, manual_seed
from repro.tensor.chipbatch import (
    ChipBatchRng,
    active_chip_count,
    active_sample_count,
    chip_batch,
    current_mc_sample,
    mc_sample_axis,
    spawn_sample_streams,
)
from repro.tensor.random import scoped_rng
from tests.faults.stacking import assert_stacked_identity, build_pair, chip_engine


ALL_FAULT_KINDS = [
    FaultSpec(kind="bitflip", level=0.1),
    FaultSpec(kind="additive", level=0.3),
    FaultSpec(kind="multiplicative", level=0.4),
    FaultSpec(kind="uniform", level=0.2),
    FaultSpec(kind="stuck", level=0.2, stuck_to="high"),
    FaultSpec(kind="drift", level=24.0),
]


class TestInstanceAxisPrimitives:
    def test_sample_axis_composes_with_chip_batch(self):
        assert active_chip_count() is None and active_sample_count() is None
        with chip_batch(5):
            assert active_chip_count() == 5
            with mc_sample_axis(3):
                assert active_chip_count() == 15
                assert active_sample_count() == 3
            assert active_chip_count() == 5
            assert active_sample_count() is None
        assert active_chip_count() is None

    def test_sample_axis_alone(self):
        with mc_sample_axis(4):
            assert active_chip_count() == 4
            assert active_sample_count() == 4

    def test_sample_axis_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=">= 1"):
            with mc_sample_axis(0):
                pass

    def test_spawn_sample_streams_plain_generator(self):
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        per_sample, per_instance = spawn_sample_streams(a, 4)
        expected = b.spawn(4)
        assert len(per_sample) == 4 and len(per_instance) == 4
        for got, ref in zip(per_sample, expected):
            np.testing.assert_array_equal(got.random(5), ref.random(5))
        assert per_instance == per_sample

    def test_spawn_sample_streams_chip_batch_is_chip_major(self):
        seeds = [11, 22]
        stacked = ChipBatchRng([np.random.default_rng(s) for s in seeds])
        per_sample, per_instance = spawn_sample_streams(stacked, 3)
        assert all(isinstance(ps, ChipBatchRng) for ps in per_sample)
        # per_sample[s] holds chip c's s-th child; per_instance flattens
        # the same generator objects chip-major: [c0s0, c0s1, c0s2, c1s0, ...]
        for c in range(2):
            for s in range(3):
                assert per_instance[c * 3 + s] is per_sample[s].generators[c]
        # and the children are the chips' SeedSequence children
        refs = [np.random.default_rng(s).spawn(3) for s in seeds]
        flat_refs = [child for chip in refs for child in chip]
        for got, ref in zip(per_instance, flat_refs):
            np.testing.assert_array_equal(got.random(4), ref.random(4))


class TestMcForwardBatched:
    def _model(self, seed=0):
        manual_seed(seed)
        return nn.Sequential(
            nn.Linear(6, 16),
            InvertedNorm(16, p=0.4, granularity="element"),
            nn.ReLU(),
            nn.Dropout(0.3),
            nn.Linear(16, 3),
        )

    @staticmethod
    def _per_chip_looped(model, x, chip_seeds, num_samples, fn=None):
        """Each chip's samples looped outside any chip batch, stacked."""
        fn = fn or (lambda inp: mc_forward(model, inp, num_samples))
        outs = []
        for seed in chip_seeds:
            with scoped_rng(np.random.default_rng(seed)):
                outs.append(fn(Tensor(x.copy())))
        return outs

    @staticmethod
    def _chip_batched(model, x, chip_seeds, fn):
        gens = [np.random.default_rng(seed) for seed in chip_seeds]
        n_chips = len(chip_seeds)
        xb = np.broadcast_to(x[None], (n_chips,) + x.shape).copy()
        with chip_batch(n_chips), scoped_rng(ChipBatchRng(gens)):
            return fn(Tensor(xb))

    def test_batched_matches_looped_under_chip_batch(self):
        model = self._model()
        x = np.random.default_rng(1).normal(size=(5, 6))
        seeds = [(c + 1) * 13 for c in range(3)]
        stacked = self._chip_batched(
            model, x, seeds, lambda inp: mc_forward(model, inp, 4)
        )
        looped = self._per_chip_looped(model, x, seeds, 4)
        assert stacked.shape == (4, 3, 5, 3)
        np.testing.assert_array_equal(stacked, np.stack(looped, axis=1))

    def test_loops_outside_chip_batch_and_stacks_inside(self):
        """The chip batch alone decides: loop outside, one pass inside."""
        model = self._model()
        x = np.random.default_rng(2).normal(size=(5, 6))
        passes = []

        def forward(inp):
            passes.append((inp.shape[0], active_sample_count(), current_mc_sample()))
            return model(inp)

        with scoped_rng(np.random.default_rng(5)):
            mc_forward(model, Tensor(x.copy()), 4, forward=forward)
        assert passes == [(5, None, (s, 4)) for s in range(4)]
        passes.clear()
        self._chip_batched(
            model, x, [3, 4], lambda inp: mc_forward(model, inp, 4, forward=forward)
        )
        assert passes == [(2 * 4, 4, None)]

    def test_single_sample_uses_looped_path(self):
        model = self._model()
        x = np.random.default_rng(3).normal(size=(2, 6))
        seeds = [9, 10]
        samples = []

        def forward(inp):
            samples.append(current_mc_sample())
            return model(inp)

        inside = self._chip_batched(
            model, x, seeds, lambda inp: mc_forward(model, inp, 1, forward=forward)
        )
        assert samples == [(0, 1)]
        looped = self._per_chip_looped(model, x, seeds, 1)
        np.testing.assert_array_equal(inside, np.stack(looped, axis=1))

    def test_rejects_nonpositive_samples(self):
        model = self._model()
        with pytest.raises(ValueError, match="num_samples"):
            mc_forward(model, Tensor(np.zeros((1, 6))), 0)

    def test_classifier_rides_batched_path(self):
        model = self._model()
        x = np.random.default_rng(4).normal(size=(6, 6))
        seeds = [21, 22]

        def proba(inp):
            return BayesianClassifier(model, num_samples=5).predict_proba(inp)

        stacked = self._chip_batched(model, x, seeds, proba)
        looped = self._per_chip_looped(model, x, seeds, 5, fn=proba)
        np.testing.assert_array_equal(stacked, np.stack(looped, axis=0))

    def test_context_restored_after_batched_forward(self):
        model = self._model()
        gens = [np.random.default_rng(0), np.random.default_rng(1)]
        with chip_batch(2), scoped_rng(ChipBatchRng(gens)):
            mc_forward(model, Tensor(np.zeros((2, 2, 6))), 3)
            assert active_chip_count() == 2
            assert active_sample_count() is None


class TestEvaluateCellsMcBatched:
    @pytest.mark.parametrize("spec", ALL_FAULT_KINDS, ids=lambda s: s.describe())
    def test_bit_identical_to_serial_looped(self, spec):
        model, evaluator = build_pair()
        cells = [WorkCell(2, run, spec) for run in range(5)]
        serial = np.array(
            [evaluate_cell(model, evaluator, cell, base_seed=5) for cell in cells]
        )
        batched = evaluate_cells_stacked(model, evaluator, cells, base_seed=5)
        np.testing.assert_array_equal(serial, batched)

    def test_identical_with_cache_disabled(self):
        # Cached-code forwards must be bit-identical to recomputation.
        spec = FaultSpec(kind="bitflip", level=0.15)
        model, evaluator = build_pair()
        cells = [WorkCell(1, run, spec) for run in range(4)]
        cached = evaluate_cells_stacked(model, evaluator, cells, base_seed=3)
        with deploy_cache_disabled():
            recomputed = evaluate_cells_stacked(
                model, evaluator, cells, base_seed=3
            )
        np.testing.assert_array_equal(cached, recomputed)

    @pytest.mark.parametrize("chip_limit", [1, 2, 3])
    def test_chip_limit_subbatching_is_invisible(self, chip_limit):
        model, evaluator = build_pair()
        specs = bitflip_sweep([0.0, 0.15])
        serial = MonteCarloCampaign(
            model, evaluator, n_runs=5, base_seed=3, engine=PER_CELL
        ).sweep(specs)
        limited = MonteCarloCampaign(
            model,
            evaluator,
            n_runs=5,
            base_seed=3,
            engine=chip_engine(model, evaluator, chip_limit),
        ).sweep(specs)
        for s, b in zip(serial, limited):
            np.testing.assert_array_equal(s.values, b.values)


class TestTaskTopologyIdentity:
    """Stacked engine == per-cell oracle on all four tiny-task topologies."""

    # image / ResNet-18: binary weights, variation routes to activations
    def test_image_binary_bitflip_proposed(self):
        assert_stacked_identity(
            "image", proposed(), bitflip_sweep([0.0, 0.1]), n_runs=2
        )

    def test_image_activation_variation_spindrop(self):
        assert_stacked_identity(
            "image", spindrop(), additive_sweep([0.0, 0.3]), n_runs=2
        )

    # audio / M5: 8-bit conv1d
    def test_audio_multibit_bitflip_proposed(self):
        assert_stacked_identity("audio", proposed(), bitflip_sweep([0.0, 0.1]))

    def test_audio_additive_spatial_spindrop(self):
        assert_stacked_identity("audio", spatial_spindrop(), additive_sweep([0.0, 0.2]))

    def test_audio_stuck_at_proposed(self):
        assert_stacked_identity(
            "audio", proposed(), [FaultSpec(kind="none", level=0.0),
                                  FaultSpec(kind="stuck", level=0.2)]
        )

    # co2 / LSTM: 8-bit recurrent cells, frozen (variational) masks
    def test_lstm_uniform_proposed(self):
        assert_stacked_identity("co2", proposed(), uniform_sweep([0.0, 0.2]))

    def test_lstm_multiplicative_spindrop(self):
        assert_stacked_identity("co2", spindrop(), multiplicative_sweep([0.0, 0.4]))

    def test_lstm_drift_proposed(self):
        assert_stacked_identity(
            "co2", proposed(), [FaultSpec(kind="none", level=0.0),
                                FaultSpec(kind="drift", level=24.0)]
        )

    # vessels / U-Net: binary weights + PACT activations, group norm
    def test_unet_bitflip_proposed(self):
        assert_stacked_identity(
            "vessels", proposed(), bitflip_sweep([0.0, 0.1]), n_runs=2
        )

    def test_unet_additive_proposed(self):
        assert_stacked_identity(
            "vessels", proposed(), additive_sweep([0.0, 0.3]), n_runs=2
        )

