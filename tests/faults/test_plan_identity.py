"""Looped-vs-planned identity suite for trace-compiled forward plans.

The campaign engine routes gradient-free evaluation forwards through
:mod:`repro.tensor.plan` by default: the first forward per (input shape,
instance layout, parameter versions, fault-hook signatures) key runs
interpreted under a tracer, subsequent forwards replay the recorded flat
numpy kernel sequence with pooled buffers.  The contract pinned here —
mirroring the chip-/MC-/scenario-batched identity suites — is that the
planned path is **bit-identical** to the interpreted path for every
backend, topology, Bayesian method, and fault kind: source steps re-run
the very sampling/hook code the interpreter runs (same draws from the
same per-cell streams, in the same order), and kernel steps re-run the
same numpy calls on the same dtypes.

The suite also asserts that replays actually *happen* (via the per-model
plan-cache counters) so the identity checks cannot silently pass by
always falling back to interpretation.

The same contract extends to the trace-time IR optimizer
(:mod:`repro.tensor.plan_passes`): optimized plans must be bit-identical
to raw-trace replay *and* to interpretation across every topology,
Bayesian method, and fault kind — and the per-pass counters must show
the passes actually fired, so the identity matrix cannot pass against a
no-op optimizer.  Optimizer state is always pinned explicitly
(``plan_opt=True`` / ``False``) so the suite holds under either ambient
``REPRO_PLAN_OPT`` setting.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.bayesian import mc_forward
from repro.eval import build_task, make_evaluator, trained_model
from repro.faults import (
    FaultSpec,
    MonteCarloCampaign,
    WorkCell,
    additive_sweep,
    bitflip_sweep,
    evaluate_cell,
    evaluate_cells_batched,
    evaluate_cells_scenario_batched,
    multiplicative_sweep,
    uniform_sweep,
)
from repro.models import proposed, spatial_spindrop, spindrop
from repro.quant import QuantConv2d, QuantLinear, SignActivation
from repro.tensor import Tensor, manual_seed
from repro.tensor import plan as plan_mod
from repro.tensor.chipbatch import active_chip_count


def build_pair(seed=0, mc_samples=3):
    """Small mixed binary/multi-bit model with a chip-aware MC evaluator."""
    manual_seed(seed)
    model = nn.Sequential(
        QuantConv2d(1, 3, 3, padding=1, weight_bits=1),
        SignActivation(),
        nn.GlobalAvgPool2d(),
        nn.Dropout(0.25),
        QuantLinear(3, 2, weight_bits=8),
    )
    data_rng = np.random.default_rng(7)
    x = data_rng.normal(size=(10, 1, 6, 6))
    y = data_rng.integers(0, 2, 10)

    def evaluator(m):
        n_chips = active_chip_count()
        inp = x if n_chips is None else np.broadcast_to(x[None], (n_chips,) + x.shape)
        logits = mc_forward(m, Tensor(inp.copy()), num_samples=mc_samples)
        pred = logits.mean(axis=0).argmax(axis=-1)
        return (pred == y).mean(axis=-1)

    return model, evaluator


SWEEPS_BY_KIND = {
    "bitflip": [FaultSpec(kind="bitflip", level=l) for l in (0.05, 0.1, 0.2)],
    "additive": [FaultSpec(kind="additive", level=l) for l in (0.1, 0.3)],
    "multiplicative": [
        FaultSpec(kind="multiplicative", level=l) for l in (0.2, 0.4)
    ],
    "uniform": [FaultSpec(kind="uniform", level=l) for l in (0.1, 0.2, 0.4)],
    "stuck": [
        FaultSpec(kind="stuck", level=0.1, stuck_to="zero"),
        FaultSpec(kind="stuck", level=0.2, stuck_to="high"),
    ],
    "drift": [FaultSpec(kind="drift", level=l) for l in (24.0, 100.0)],
}


class TestCellIdentity:
    """evaluate_cell* with plan=True == plan=False for every fault kind."""

    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_serial_cells_bit_identical(self, kind):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND[kind]
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(specs)
            for run in range(3)
        ]
        interpreted = np.array(
            [evaluate_cell(model, evaluator, c, 5, plan=False) for c in cells]
        )
        planned = np.array(
            [evaluate_cell(model, evaluator, c, 5, plan=True) for c in cells]
        )
        np.testing.assert_array_equal(interpreted, planned)
        stats = plan_mod.plan_stats(model)
        assert stats.traces > 0 and stats.replays > 0

    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_scenario_batched_bit_identical(self, kind):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND[kind]
        cell_groups = [
            [WorkCell(idx, run, spec) for run in range(3)]
            for idx, spec in enumerate(specs)
        ]
        interpreted = evaluate_cells_scenario_batched(
            model, evaluator, cell_groups, base_seed=5, plan=False
        )
        planned = evaluate_cells_scenario_batched(
            model, evaluator, cell_groups, base_seed=5, plan=True
        )
        np.testing.assert_array_equal(interpreted, planned)

    def test_chip_batched_bit_identical(self):
        model, evaluator = build_pair()
        spec = FaultSpec(kind="additive", level=0.3)
        cells = [WorkCell(0, run, spec) for run in range(4)]
        interpreted = evaluate_cells_batched(
            model, evaluator, cells, base_seed=2, plan=False
        )
        planned = evaluate_cells_batched(
            model, evaluator, cells, base_seed=2, plan=True
        )
        np.testing.assert_array_equal(interpreted, planned)

    def test_repeated_identical_passes_replay_and_match(self):
        """A re-attach with identical seeds replays and stays identical."""
        model, evaluator = build_pair()
        spec = FaultSpec(kind="uniform", level=0.2)
        cells = [WorkCell(0, run, spec) for run in range(3)]
        first = evaluate_cells_batched(model, evaluator, cells, 9, plan=True)
        stats = plan_mod.plan_stats(model)
        traces_before = stats.traces
        second = evaluate_cells_batched(model, evaluator, cells, 9, plan=True)
        np.testing.assert_array_equal(first, second)
        assert stats.traces == traces_before  # served by replay, no re-trace
        assert stats.replays > 0


class TestCampaignIdentity:
    """Campaign sweeps: plan on == plan off across backends."""

    def test_batched_sweep_bit_identical(self):
        model, evaluator = build_pair()
        specs = bitflip_sweep([0.0, 0.05, 0.1, 0.2])
        off = MonteCarloCampaign(
            model, evaluator, n_runs=4, base_seed=3, executor="batched",
            plan=False,
        ).sweep(specs)
        on = MonteCarloCampaign(
            model, evaluator, n_runs=4, base_seed=3, executor="batched",
            plan=True,
        ).sweep(specs)
        for a, b in zip(off, on):
            np.testing.assert_array_equal(a.values, b.values)

    def test_serial_sweep_bit_identical(self):
        model, evaluator = build_pair()
        specs = uniform_sweep([0.0, 0.1, 0.2])
        off = MonteCarloCampaign(
            model, evaluator, n_runs=3, base_seed=1, executor="serial",
            plan=False,
        ).sweep(specs)
        on = MonteCarloCampaign(
            model, evaluator, n_runs=3, base_seed=1, executor="serial",
            plan=True,
        ).sweep(specs)
        for a, b in zip(off, on):
            np.testing.assert_array_equal(a.values, b.values)


class TestOptimizerIdentity:
    """plan_opt=True == plan_opt=False for every fault kind (micro-model)."""

    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_serial_cells_bit_identical(self, kind):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND[kind]
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(specs)
            for run in range(2)
        ]
        raw = np.array(
            [
                evaluate_cell(model, evaluator, c, 5, plan=True, plan_opt=False)
                for c in cells
            ]
        )
        optimized = np.array(
            [
                evaluate_cell(model, evaluator, c, 5, plan=True, plan_opt=True)
                for c in cells
            ]
        )
        np.testing.assert_array_equal(raw, optimized)
        stats = plan_mod.plan_stats(model)
        assert stats.traces > 0 and stats.replays > 0
        assert sum(stats.opt_counters.values()) > 0  # passes really fired

    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_scenario_batched_bit_identical(self, kind):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND[kind]
        cell_groups = [
            [WorkCell(idx, run, spec) for run in range(2)]
            for idx, spec in enumerate(specs)
        ]
        raw = evaluate_cells_scenario_batched(
            model, evaluator, cell_groups, base_seed=5, plan=True,
            plan_opt=False,
        )
        optimized = evaluate_cells_scenario_batched(
            model, evaluator, cell_groups, base_seed=5, plan=True,
            plan_opt=True,
        )
        np.testing.assert_array_equal(raw, optimized)


class TestTaskTopologyIdentity:
    """interpreted == raw-trace replay == optimized replay, all topologies."""

    def _compare(self, task_name, method, specs, samples=3, n_runs=3):
        task = build_task(task_name, preset="tiny")
        model = trained_model(task, method, "tiny", seed=0)
        evaluator = make_evaluator(
            task.name, task.test_set, method, mc_samples=samples
        )
        results = {}
        for label, plan, plan_opt in (
            ("interpreted", False, None),
            ("planned-raw", True, False),
            ("planned-opt", True, True),
        ):
            campaign = MonteCarloCampaign(
                model, evaluator, n_runs=n_runs, base_seed=0,
                executor="batched", plan=plan, plan_opt=plan_opt,
            )
            results[label] = campaign.sweep(specs)
        for label in ("planned-raw", "planned-opt"):
            for a, b in zip(results["interpreted"], results[label]):
                np.testing.assert_array_equal(a.values, b.values)
        stats = plan_mod.plan_stats(model)
        assert stats.traces > 0 and stats.replays > 0
        assert sum(stats.opt_counters.values()) > 0  # passes really fired

    # image / ResNet-18: binary weights, variation routes to activations
    def test_image_binary_bitflip_proposed(self):
        self._compare("image", proposed(), bitflip_sweep([0.0, 0.05, 0.1]), n_runs=2)

    def test_image_activation_variation_spindrop(self):
        self._compare("image", spindrop(), additive_sweep([0.0, 0.2, 0.4]), n_runs=2)

    # audio / M5: 8-bit conv1d
    def test_audio_multibit_bitflip_proposed(self):
        self._compare("audio", proposed(), bitflip_sweep([0.0, 0.05, 0.1]))

    def test_audio_additive_spatial_spindrop(self):
        self._compare(
            "audio", spatial_spindrop(), additive_sweep([0.0, 0.1, 0.2])
        )

    # co2 / LSTM: 8-bit recurrent cells, frozen (variational) masks
    def test_lstm_uniform_proposed(self):
        self._compare("co2", proposed(), uniform_sweep([0.0, 0.1, 0.2, 0.4]))

    def test_lstm_multiplicative_spindrop(self):
        self._compare("co2", spindrop(), multiplicative_sweep([0.0, 0.2, 0.4]))

    # vessels / U-Net: binary weights + PACT activations, group norm
    def test_unet_bitflip_proposed(self):
        self._compare("vessels", proposed(), bitflip_sweep([0.0, 0.05, 0.1]), n_runs=2)

    def test_unet_additive_proposed(self):
        self._compare("vessels", proposed(), additive_sweep([0.0, 0.2, 0.3]), n_runs=2)
