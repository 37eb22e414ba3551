"""Tests for the campaign engine's single-scenario stacked passes.

The engine's contract is the per-cell contract plus one word: stacking a
scenario's chip instances along a leading chip axis and evaluating them
in one vectorized pass
(:func:`~repro.faults.executor.evaluate_cells_stacked`) must produce
**bit-identical per-chip metrics** to evaluating the cells one at a
time.  These tests check that contract across fault models
(multi-bit bit flips, binary bit flips, additive/uniform variation),
topologies (conv nets, the LSTM forecaster, a binary net with
sign-activation injection sites), chip-axis edge cases (C=1, budgets
that split a scenario's chips), and the campaign-result cache (stacked
runs produce and consume the same keys as per-cell runs).
"""

import numpy as np
import pytest

from repro.eval import (
    build_task,
    campaign_key,
    load_campaign_values,
    run_robustness_sweep,
)
from repro.faults import (
    ChipBatchedActivationNoise,
    FaultSpec,
    MonteCarloCampaign,
    StackedWeightFault,
    WorkCell,
    additive_sweep,
    bitflip_sweep,
    evaluate_cell,
    evaluate_cells_stacked,
    uniform_sweep,
)
from repro.models import conventional, proposed, spindrop
from repro.quant import QuantLinear
from repro.quant.functional import QuantizedWeight
from repro.tensor import Tensor, chip_batch, manual_seed
from repro.tensor.chipbatch import ChipBatchRng, active_chip_count
from tests.faults.stacking import (
    ENGINES,
    assert_stacked_identity,
    build_pair,
    chip_engine,
)


def _serial_reference(model, evaluator, cells, base_seed):
    return np.array(
        [evaluate_cell(model, evaluator, cell, base_seed) for cell in cells]
    )


class TestEvaluateCellsBatched:
    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(kind="bitflip", level=0.1),  # binary + 8-bit sites
            FaultSpec(kind="additive", level=0.3),  # routed to activations
            FaultSpec(kind="stuck", level=0.2, stuck_to="high"),
            FaultSpec(kind="drift", level=24.0),
        ],
    )
    def test_bit_identical_to_serial(self, spec):
        model, evaluator = build_pair()
        cells = [WorkCell(2, run, spec) for run in range(6)]
        serial = _serial_reference(model, evaluator, cells, base_seed=5)
        batched = evaluate_cells_stacked(model, evaluator, cells, base_seed=5)
        np.testing.assert_array_equal(serial, batched)

    def test_single_chip_batch(self):
        model, evaluator = build_pair()
        cells = [WorkCell(0, 3, FaultSpec(kind="bitflip", level=0.2))]
        serial = _serial_reference(model, evaluator, cells, base_seed=1)
        batched = evaluate_cells_stacked(model, evaluator, cells, base_seed=1)
        np.testing.assert_array_equal(serial, batched)

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


class TestBackendEquivalence:
    def _campaign(self, executor, chips=None):
        model, evaluator = build_pair()
        engine = ENGINES[executor]
        if chips is not None:
            engine = chip_engine(model, evaluator, chips)
        return MonteCarloCampaign(
            model, evaluator, n_runs=5, base_seed=3, engine=engine
        )

    @pytest.mark.parametrize("sweep_builder", [bitflip_sweep, additive_sweep])
    def test_batched_matches_serial_sweep(self, sweep_builder):
        specs = sweep_builder([0.0, 0.1, 0.2])
        serial = self._campaign("serial").sweep(specs)
        batched = self._campaign("batched").sweep(specs)
        for s, b in zip(serial, batched):
            np.testing.assert_array_equal(s.values, b.values)

    @pytest.mark.parametrize("chip_limit", [1, 2, 4])
    def test_chip_limit_subbatching_is_invisible(self, chip_limit):
        """A budget of ``chip_limit`` chips splits each scenario's passes."""
        specs = bitflip_sweep([0.0, 0.15])
        serial = self._campaign("serial").sweep(specs)
        limited = self._campaign("batched", chips=chip_limit).sweep(specs)
        for s, b in zip(serial, limited):
            np.testing.assert_array_equal(s.values, b.values)


class TestTaskIdentity:
    """Batched == serial on the real tiny tasks (trained-model cache warm)."""

    def test_audio_conv_multibit_bitflip(self):
        assert_stacked_identity("audio", proposed(), bitflip_sweep([0.0, 0.1]))

    def test_audio_conv_additive_conventional(self):
        assert_stacked_identity("audio", conventional(), additive_sweep([0.0, 0.2]))

    def test_lstm_uniform_noise(self):
        assert_stacked_identity("co2", proposed(), uniform_sweep([0.0, 0.2]))

    def test_lstm_bitflip_spindrop(self):
        assert_stacked_identity("co2", spindrop(), bitflip_sweep([0.0, 0.1]))

    def test_binary_resnet_activation_variation(self):
        # Additive variation on a binary net routes to the pre-sign
        # activations; exercises ChipBatchedActivationNoise.
        assert_stacked_identity(
            "image", proposed(), additive_sweep([0.0, 0.3]), n_runs=2
        )

    def test_unet_groupwise_bitflip(self):
        assert_stacked_identity(
            "vessels", proposed(), bitflip_sweep([0.0, 0.1]), n_runs=2
        )


class TestCacheEquivalence:
    def test_batched_hits_serial_cache_keys(self, isolated_cache):
        task = build_task("audio", preset="tiny")
        methods = [proposed()]
        specs = bitflip_sweep([0.0, 0.1])
        serial = run_robustness_sweep(
            task, methods, specs, preset="tiny", n_runs=3, executor="serial"
        )
        keys = [
            campaign_key(task, methods[0], spec, 3, 4, 0, None) for spec in specs
        ]
        cached = [load_campaign_values(key) for key in keys]
        assert all(values is not None for values in cached)
        # A batched re-run is served entirely from the serial run's store
        # entries (same keys), and reproduces the same curves.
        store_dir = isolated_cache / "store"
        files_before = sorted(p.name for p in store_dir.rglob("*.npz"))
        batched = run_robustness_sweep(
            task, methods, specs, preset="tiny", n_runs=3,
            engine=ENGINES["batched"],
        )
        files_after = sorted(p.name for p in store_dir.rglob("*.npz"))
        assert files_before == files_after
        np.testing.assert_array_equal(
            serial.curves["proposed"].means, batched.curves["proposed"].means
        )

    def test_batched_populates_cache_for_serial(self, isolated_cache):
        task = build_task("audio", preset="tiny")
        methods = [proposed()]
        specs = bitflip_sweep([0.0, 0.1])
        batched = run_robustness_sweep(
            task, methods, specs, preset="tiny", n_runs=3,
            engine=ENGINES["batched"],
        )
        serial = run_robustness_sweep(
            task, methods, specs, preset="tiny", n_runs=3, executor="serial"
        )
        np.testing.assert_array_equal(
            batched.curves["proposed"].means, serial.curves["proposed"].means
        )


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

    def test_stacked_hook_matches_per_chip_models(self):
        spec = FaultSpec(kind="bitflip", level=0.25)
        rng = np.random.default_rng(0)
        qw = QuantizedWeight(
            codes=rng.integers(-127, 128, size=(6, 5)).astype(np.float64),
            scale=np.asarray(0.01),
            bits=8,
        )
        seeds = [101, 202, 303]
        fault = StackedWeightFault(
            [spec.build_weight_model(np.random.default_rng(s)) for s in seeds]
        )
        stacked = fault(qw)
        for i, seed in enumerate(seeds):
            serial_model = spec.build_weight_model(np.random.default_rng(seed))
            np.testing.assert_array_equal(stacked[i], serial_model(qw))

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
