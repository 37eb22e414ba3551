"""Tests for the campaign engine's stacked passes.

The engine's contract is the per-cell contract plus one word: stacking
cells' chip instances along a leading instance axis and evaluating them
in one vectorized pass
(:func:`~repro.faults.executor.evaluate_cells_stacked`) must produce
**bit-identical per-chip metrics** to evaluating the cells one at a
time.  All four topologies × methods × fault kinds are pinned in
``test_identity_matrix.py``; here the micro-model of
``tests/faults/stacking.py`` checks every fault kind for each shape a
pass can take (one chip, several chips of one scenario, several
scenarios at their own severities, each with an MC-sample axis), plus
the stacked fault hooks, the stacked attach's validation, the chip-batch
primitives, and campaign sweeps on the stacked engine.
"""

import numpy as np
import pytest

from repro.faults import (
    PER_CELL,
    ChipBatchedActivationNoise,
    EngineConfig,
    FaultInjector,
    FaultSpec,
    MonteCarloCampaign,
    StackedWeightFault,
    WorkCell,
    additive_sweep,
    bitflip_sweep,
    evaluate_cells_stacked,
)
from repro.quant import QuantLinear
from repro.quant.functional import fake_quantize_weight_record
from repro.quant.layers import deploy_cache_disabled
from repro.tensor import Tensor, chip_batch, manual_seed
from repro.tensor.chipbatch import ChipBatchRng, active_chip_count, mc_sample_axis
from tests.faults.stacking import SWEEPS_BY_KIND, build_pair, serial_values


class TestStackedCells:
    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_every_pass_shape_gives_the_per_cell_bits(self, kind):
        """One chip, the four chips of one scenario and every scenario of
        the kind at once, cached and with the deployment cache off; the
        micro-model's three MC samples put a sample axis in each pass.
        The per-cell cells in reverse order, uncached, agree too."""
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND[kind]
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(specs)
            for run in range(4)
        ]
        oracle = serial_values(model, evaluator, cells, 5)
        with deploy_cache_disabled():
            reverse = serial_values(
                model, evaluator, cells, 5, order=reversed(range(len(cells)))
            )
            uncached = evaluate_cells_stacked(model, evaluator, cells, 5)
        np.testing.assert_array_equal(reverse, oracle, "reversed, uncached")
        np.testing.assert_array_equal(uncached, oracle, "stacked, uncached")
        for label, n in (
            ("one chip", 1), ("one scenario", 4), ("across scenarios", len(cells))
        ):
            stacked = evaluate_cells_stacked(model, evaluator, cells[:n], 5)
            np.testing.assert_array_equal(stacked, oracle[:n], label)

    def test_matches_per_scenario_passes(self):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND["additive"]
        cell_groups = [
            [WorkCell(idx, run, spec) for run in range(3)]
            for idx, spec in enumerate(specs)
        ]
        per_scenario = np.concatenate(
            [
                evaluate_cells_stacked(model, evaluator, group, base_seed=2)
                for group in cell_groups
            ]
        )
        stacked = evaluate_cells_stacked(
            model, evaluator, [c for group in cell_groups for c in group],
            base_seed=2,
        )
        np.testing.assert_array_equal(per_scenario, stacked)

    def test_empty_pass(self):
        model, evaluator = build_pair()
        assert evaluate_cells_stacked(model, evaluator, [], 0).size == 0

    def test_rejects_mixed_kinds(self):
        model, evaluator = build_pair()
        cells = [
            WorkCell(0, 0, FaultSpec(kind="bitflip", level=0.1)),
            WorkCell(1, 0, FaultSpec(kind="additive", level=0.1)),
        ]
        with pytest.raises(ValueError, match="one fault kind"):
            evaluate_cells_stacked(model, evaluator, cells, base_seed=0)

    def test_detaches_hooks_and_restores_context(self):
        model, evaluator = build_pair()
        cells = [WorkCell(0, r, FaultSpec(kind="bitflip", level=0.1)) for r in range(2)]
        evaluate_cells_stacked(model, evaluator, cells, base_seed=0)
        assert active_chip_count() is None
        assert all(
            m.weight_fault is None
            for m in model.modules()
            if hasattr(m, "weight_fault")
        )


class TestStackedWeightFault:
    @staticmethod
    def _record(shape=(4, 5), bits=8, seed=0):
        weights = np.random.default_rng(seed).normal(size=shape)
        return fake_quantize_weight_record(weights, bits)

    @staticmethod
    def _hook(specs, seed_groups):
        """One stacked hook over every (spec, seed) cell, spec-major."""
        return StackedWeightFault([
            spec.build_weight_model(np.random.default_rng(seed))
            for spec, seeds in zip(specs, seed_groups)
            for seed in seeds
        ])

    @pytest.mark.parametrize("kind, levels, bits", [
        ("additive", (0.1, 0.4), 8),
        ("bitflip", (0.1, 0.3), 4),
        ("bitflip", (0.25,), 8),
    ], ids=["additive-8bit", "bitflip-4bit", "bitflip-8bit"])
    def test_slices_match_per_cell_models(self, kind, levels, bits):
        """Each instance's slice is its own per-cell model's output."""
        qw = self._record(bits=bits)
        specs = [FaultSpec(kind=kind, level=level) for level in levels]
        seed_groups = [[11 * k + 1, 11 * k + 2, 11 * k + 3] for k in range(len(specs))]
        stacked = self._hook(specs, seed_groups)(qw)
        assert stacked.shape == (3 * len(specs),) + qw.codes.shape
        for k, (spec, seeds) in enumerate(zip(specs, seed_groups)):
            for c, seed in enumerate(seeds):
                model = spec.build_weight_model(np.random.default_rng(seed))
                np.testing.assert_array_equal(stacked[3 * k + c], model(qw))

    def test_heterogeneous_severities_vary_along_axis(self):
        qw = self._record()
        specs = [
            FaultSpec(kind="uniform", level=0.05),
            FaultSpec(kind="uniform", level=0.5),
        ]
        stacked = self._hook(specs, [[1], [1]])(qw)
        # Same seed, different severity: same pattern, different magnitude.
        low = np.abs(stacked[0] - qw.codes)
        high = np.abs(stacked[1] - qw.codes)
        assert high.max() > low.max() * 2

    def test_repeats_along_sample_axis(self):
        qw = self._record()
        hook = self._hook([FaultSpec(kind="additive", level=0.2)], [[7, 8]])
        flat = hook(qw)
        with mc_sample_axis(3):
            expanded = hook(qw)
        assert expanded.shape == (6,) + qw.codes.shape
        np.testing.assert_array_equal(expanded, np.repeat(flat, 3, axis=0))


class TestAttachScenarioBatched:
    """A rejected stacked attach leaves no weight-fault hook and draws no seed."""

    @pytest.mark.parametrize("specs, n_rngs, match", [
        ([FaultSpec(kind="additive", level=0.1),
          FaultSpec(kind="uniform", level=0.1)], 2, "one fault kind"),
        ([FaultSpec(kind="bitflip", level=0.1),
          FaultSpec(kind="bitflip", level=0.0)], 2, "non-degenerate"),
        ([FaultSpec(kind="none", level=0.0)], 1, "non-degenerate"),
        ([FaultSpec(kind="additive", level=0.1)], 2, "one rng per spec"),
    ], ids=["mixed-kinds", "zero-level", "fault-free", "mismatched-groups"])
    def test_rejected_cleanly(self, specs, n_rngs, match):
        model, _ = build_pair()
        injector = FaultInjector(model)
        injector.attach(FaultSpec(kind="bitflip", level=0.1), np.random.default_rng(9))
        assert any(layer.weight_fault is not None for layer in injector._weight_sites())
        rngs = [np.random.default_rng(seed) for seed in range(1, n_rngs + 1)]
        states = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(ValueError, match=match):
            injector.attach_scenario_batched(specs, rngs)
        assert all(layer.weight_fault is None for layer in injector._weight_sites())
        assert [rng.bit_generator.state for rng in rngs] == states


class TestStackedSweeps:
    @pytest.mark.parametrize("sweep_builder", [bitflip_sweep, additive_sweep])
    def test_stacked_sweep_matches_per_cell_sweep(self, sweep_builder):
        model, evaluator = build_pair()
        specs = sweep_builder([0.0, 0.1, 0.2])
        serial, batched = (
            MonteCarloCampaign(
                model, evaluator, n_runs=5, base_seed=3, engine=engine
            ).sweep(specs)
            for engine in (PER_CELL, EngineConfig(None))
        )
        for s, b in zip(serial, batched):
            np.testing.assert_array_equal(s.values, b.values)


class TestChipBatchPrimitives:
    def test_chip_batch_rng_slices_match_generators(self):
        seeds = [11, 22, 33]
        stacked = ChipBatchRng([np.random.default_rng(s) for s in seeds])
        draws = stacked.random((3, 4, 2))
        for i, seed in enumerate(seeds):
            np.testing.assert_array_equal(
                draws[i], np.random.default_rng(seed).random((4, 2))
            )

    def test_chip_batch_rng_rejects_wrong_lead(self):
        stacked = ChipBatchRng([np.random.default_rng(0)] * 2)
        with pytest.raises(RuntimeError, match="instance axis"):
            stacked.normal(0.0, 1.0, size=(3, 4))

    def test_chip_batch_context_restores(self):
        assert active_chip_count() is None
        with chip_batch(4):
            assert active_chip_count() == 4
            with chip_batch(2):
                assert active_chip_count() == 2
            assert active_chip_count() == 4
        assert active_chip_count() is None

    def test_activation_noise_rejects_a_mismatched_instance_axis(self):
        spec = FaultSpec(kind="additive", level=0.2)
        hook = ChipBatchedActivationNoise([
            spec.build_activation_model(np.random.default_rng(s)) for s in (1, 2)
        ])
        x = np.random.default_rng(0).normal(size=(3, 4))
        with pytest.raises(ValueError, match="2 instances"):
            hook(x)
        with pytest.raises(ValueError, match="2 instances"):
            hook(np.float64(1.0))
        assert hook(x[:2]).shape == (2, 4)

    def test_chip_batched_quant_linear_broadcasts(self):
        manual_seed(0)
        layer = QuantLinear(4, 3, weight_bits=8)
        spec = FaultSpec(kind="bitflip", level=0.3)
        layer.weight_fault = StackedWeightFault(
            [spec.build_weight_model(np.random.default_rng(s)) for s in (1, 2)]
        )
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 4)))
        out = layer(x)
        assert out.shape == (2, 5, 3)
        # Chip i's slice equals a serial pass with chip i's fault model.
        for i, seed in enumerate([1, 2]):
            layer.weight_fault = spec.build_weight_model(
                np.random.default_rng(seed)
            )
            serial = layer(Tensor(x.data[i]))
            np.testing.assert_array_equal(out.data[i], serial.data)
