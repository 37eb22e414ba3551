"""Tests for MC-sample-batched Bayesian evaluation (the instance axis).

Under an active chip batch, ``mc_forward`` stacks the Monte Carlo sample
loop of a Bayesian evaluator into the chip-batched pass, so one forward
carries a ``chips x mc_samples`` instance axis; outside a chip batch it
loops the samples.  The contract is the chip-batched contract extended
one axis: a stacked forward must give, chip by chip, the bits of the
looped samples (same ``SeedSequence``-derived per-sample streams, drawn
in the serial order).  These tests pin the instance-axis primitives and
``mc_forward`` on both paths; whole stacked cells with a sample axis
are checked in ``test_batched.py`` and ``test_identity_matrix.py``.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import InvertedNorm
from repro.core.bayesian import BayesianClassifier, mc_forward
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
