"""Evaluation-plan identity suite for gradient-free campaign forwards.

Every campaign cell is evaluated by the interpreted forward, with the
per-layer deployment cache (:mod:`repro.quant.layers`) serving
programmed weight codes across forwards.  The contract pinned here —
for every engine path, topology, Bayesian method and fault kind — is
that a cell's value depends **only** on ``(base_seed, cell)``:

* evaluation order never matters: cells evaluated in reverse, or after
  other cells warmed the deployment cache, give the same bits;
* the deployment cache is invisible: cached forwards equal forwards
  under :func:`~repro.quant.layers.deploy_cache_disabled`;
* stacked passes (one scenario or several) equal per-cell evaluation;
* a training step between evaluations never serves stale codes: the
  stepped model equals a fresh model loaded with the same weights.
"""

import numpy as np
import pytest

from repro.faults import (
    FaultSpec,
    MonteCarloCampaign,
    WorkCell,
    additive_sweep,
    bitflip_sweep,
    evaluate_cells_stacked,
    multiplicative_sweep,
    uniform_sweep,
)
from repro.models import proposed, spatial_spindrop, spindrop
from repro.quant.layers import deploy_cache_disabled
from repro.tensor import Tensor
from repro.train import Adam, mse_loss
from tests.faults.stacking import (
    ENGINES,
    SWEEPS_BY_KIND,
    build_pair,
    micro_data,
    serial_values,
    sweep_values,
    tiny_pair,
)


def train_step(model, lr=0.5):
    """One Adam step on the micro-model's data; bumps parameter versions."""
    x, _ = micro_data()
    model.train()
    optimizer = Adam(model.parameters(), lr=lr)
    pred = model(Tensor(x))
    loss = mse_loss(pred, np.ones(pred.shape))
    model.zero_grad()
    loss.backward()
    optimizer.step()
    model.eval()


def fresh_copy(model):
    """A freshly built micro-model holding ``model``'s current weights."""
    clone, evaluator = build_pair(seed=1)
    clone.load_state_dict(model.state_dict())
    clone.eval()
    return clone, evaluator


class TestCellIdentity:
    """A cell's value is independent of evaluation order and caching."""

    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_serial_cells_bit_identical(self, kind):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND[kind]
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(specs)
            for run in range(3)
        ]
        forward = serial_values(model, evaluator, cells, 5)
        backward = serial_values(
            model, evaluator, cells, 5, order=reversed(range(len(cells)))
        )
        with deploy_cache_disabled():
            uncached = serial_values(model, evaluator, cells, 5)
        np.testing.assert_array_equal(forward, backward)
        np.testing.assert_array_equal(forward, uncached)

    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_scenario_batched_bit_identical(self, kind):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND[kind]
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(specs)
            for run in range(3)
        ]
        batched = evaluate_cells_stacked(model, evaluator, cells, base_seed=5)
        serial = serial_values(model, evaluator, cells, 5)
        np.testing.assert_array_equal(batched, serial)

    def test_chip_batched_bit_identical(self):
        model, evaluator = build_pair()
        spec = FaultSpec(kind="additive", level=0.3)
        cells = [WorkCell(0, run, spec) for run in range(4)]
        batched = evaluate_cells_stacked(model, evaluator, cells, base_seed=2)
        serial = serial_values(model, evaluator, cells, 2)
        np.testing.assert_array_equal(batched, serial)

    def test_repeated_identical_passes_replay_and_match(self):
        """A re-attach with identical seeds reproduces the first pass."""
        model, evaluator = build_pair()
        spec = FaultSpec(kind="uniform", level=0.2)
        cells = [WorkCell(0, run, spec) for run in range(3)]
        first = evaluate_cells_stacked(model, evaluator, cells, 9)
        second = evaluate_cells_stacked(model, evaluator, cells, 9)
        with deploy_cache_disabled():
            uncached = evaluate_cells_stacked(model, evaluator, cells, 9)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, uncached)


class TestCampaignIdentity:
    """Campaign sweeps: stacked engine == per-cell engine == cell calls."""

    def test_batched_sweep_bit_identical(self):
        model, evaluator = build_pair()
        specs = bitflip_sweep([0.0, 0.05, 0.1, 0.2])
        serial = MonteCarloCampaign(
            model, evaluator, n_runs=4, base_seed=3, engine=ENGINES["serial"],
        ).sweep(specs)
        batched = MonteCarloCampaign(
            model, evaluator, n_runs=4, base_seed=3, engine=ENGINES["batched"],
        ).sweep(specs)
        for a, b in zip(serial, batched):
            np.testing.assert_array_equal(a.values, b.values)

    def test_serial_sweep_bit_identical(self):
        model, evaluator = build_pair()
        specs = uniform_sweep([0.0, 0.1, 0.2])
        results = MonteCarloCampaign(
            model, evaluator, n_runs=3, base_seed=1, engine=ENGINES["serial"],
        ).sweep(specs)
        # Re-evaluate the faulty cells in reverse, uncached: same bits.
        with deploy_cache_disabled():
            for idx in reversed(range(1, len(specs))):
                cells = [WorkCell(idx, run, specs[idx]) for run in range(3)]
                expected = serial_values(
                    model, evaluator, cells, 1, order=reversed(range(3))
                )
                np.testing.assert_array_equal(results[idx].values, expected)


class TestOptimizerIdentity:
    """After a training step, cells equal a fresh model with the same weights."""

    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_serial_cells_bit_identical(self, kind):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND[kind]
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(specs)
            for run in range(2)
        ]
        # A fault-free cell reads the clean cache entry, which no fault
        # hook re-keys: only the parameter versions can invalidate it.
        cells.append(WorkCell(len(specs), 0, FaultSpec(kind="none", level=0.0)))
        serial_values(model, evaluator, cells, 5)  # warm the deploy caches
        before = [p.data.copy() for p in model.parameters()]
        train_step(model)
        assert any(
            not np.array_equal(b, p.data)
            for b, p in zip(before, model.parameters())
        )
        stepped = serial_values(model, evaluator, cells, 5)
        clone, clone_evaluator = fresh_copy(model)
        fresh = serial_values(clone, clone_evaluator, cells, 5)
        np.testing.assert_array_equal(stepped, fresh)

    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_scenario_batched_bit_identical(self, kind):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND[kind]
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(specs)
            for run in range(2)
        ]
        evaluate_cells_stacked(model, evaluator, cells, 5)
        train_step(model)
        stepped = evaluate_cells_stacked(model, evaluator, cells, base_seed=5)
        clone, clone_evaluator = fresh_copy(model)
        fresh = evaluate_cells_stacked(
            clone, clone_evaluator, cells, base_seed=5
        )
        np.testing.assert_array_equal(stepped, fresh)


class TestTaskTopologyIdentity:
    """Stacked sweep == reverse-order uncached per-cell runs, all topologies."""

    def _compare(self, task_name, method, specs, samples=3, n_runs=3):
        model, evaluator = tiny_pair(task_name, method, samples)
        results = sweep_values(model, evaluator, specs, n_runs, ENGINES["batched"])
        with deploy_cache_disabled():
            for idx in reversed(range(len(specs))):
                if specs[idx].kind == "none":
                    continue
                cells = [WorkCell(idx, run, specs[idx]) for run in range(n_runs)]
                expected = serial_values(
                    model, evaluator, cells, 0, order=reversed(range(n_runs))
                )
                np.testing.assert_array_equal(results[idx], expected)

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
