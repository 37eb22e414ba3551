"""Tests for fault injection orchestration and Monte Carlo campaigns."""

import numpy as np
import pytest

from repro import nn
from repro.faults import (
    PER_CELL,
    FaultInjector,
    FaultSpec,
    MonteCarloCampaign,
    additive_sweep,
    bitflip_sweep,
    multiplicative_sweep,
    uniform_sweep,
)
from repro.quant import QuantConv2d, QuantLinear, SignActivation
from repro.tensor import Tensor, manual_seed


def binary_model():
    return nn.Sequential(
        QuantConv2d(1, 4, 3, padding=1, weight_bits=1),
        SignActivation(),
        QuantConv2d(4, 4, 3, padding=1, weight_bits=1),
        nn.GlobalAvgPool2d(),
        QuantLinear(4, 2, weight_bits=8),
    )


class TestFaultInjector:
    def test_attach_bitflip_hits_all_weight_sites(self):
        model = binary_model()
        injector = FaultInjector(model)
        injector.attach(FaultSpec(kind="bitflip", level=0.1), np.random.default_rng(0))
        sites = [m for m in model.modules() if hasattr(m, "weight_fault")]
        assert all(m.weight_fault is not None for m in sites)
        injector.detach()
        assert all(m.weight_fault is None for m in sites)

    def test_variation_routes_to_activations_for_binary(self):
        model = binary_model()
        injector = FaultInjector(model)
        injector.attach(FaultSpec(kind="additive", level=0.2), np.random.default_rng(0))
        convs = [m for m in model.modules() if isinstance(m, QuantConv2d)]
        linears = [m for m in model.modules() if isinstance(m, QuantLinear)]
        signs = [m for m in model.modules() if isinstance(m, SignActivation)]
        # Binary conv layers get NO weight fault (variation goes to signs).
        assert all(c.weight_fault is None for c in convs)
        # The 8-bit linear head DOES get the weight-level variation.
        assert all(l.weight_fault is not None for l in linears)
        assert all(s.pre_fault is not None for s in signs)

    def test_bitflips_always_target_weights(self):
        model = binary_model()
        injector = FaultInjector(model)
        injector.attach(FaultSpec(kind="bitflip", level=0.1), np.random.default_rng(0))
        signs = [m for m in model.modules() if isinstance(m, SignActivation)]
        assert all(s.pre_fault is None for s in signs)

    def test_context_manager_detaches(self):
        model = binary_model()
        with FaultInjector(model) as injector:
            injector.attach(FaultSpec(kind="bitflip", level=0.1), np.random.default_rng(0))
        convs = [m for m in model.modules() if isinstance(m, QuantConv2d)]
        assert all(c.weight_fault is None for c in convs)

    def test_attached_fault_changes_output(self, rng):
        manual_seed(0)
        model = binary_model()
        model.eval()
        x = Tensor(rng.normal(size=(2, 1, 8, 8)))
        clean = model(x).data.copy()
        injector = FaultInjector(model)
        injector.attach(FaultSpec(kind="bitflip", level=0.3), np.random.default_rng(0))
        faulty = model(x).data
        injector.detach()
        restored = model(x).data
        assert not np.allclose(clean, faulty)
        np.testing.assert_allclose(restored, clean)

    def test_layers_get_independent_patterns(self):
        manual_seed(0)
        model = nn.Sequential(
            QuantLinear(8, 8, weight_bits=8), QuantLinear(8, 8, weight_bits=8)
        )
        injector = FaultInjector(model)
        injector.attach(FaultSpec(kind="bitflip", level=0.2), np.random.default_rng(0))
        x = Tensor(np.eye(8))
        model.eval()
        model(x)
        a = model[0].last_quantized
        b = model[1].last_quantized
        flips_a = model[0].weight_fault(a) != a.codes
        flips_b = model[1].weight_fault(b) != b.codes
        assert not np.array_equal(flips_a, flips_b)


class TestMonteCarloCampaign:
    def _campaign(self, n_runs=5):
        manual_seed(0)
        model = binary_model()
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(16, 1, 8, 8)))
        y = rng.integers(0, 2, 16)

        def evaluator(m):
            m.eval()
            from repro.tensor import no_grad

            with no_grad():
                return float((m(x).data.argmax(axis=1) == y).mean())

        # The evaluator is not chip-aware, so it runs on the per-cell engine.
        return MonteCarloCampaign(
            model, evaluator, n_runs=n_runs, base_seed=0, engine=PER_CELL
        )

    def test_fault_free_runs_once(self):
        campaign = self._campaign()
        result = campaign.run(FaultSpec(kind="none", level=0.0))
        assert result.std == 0.0
        assert result.n_runs == 5  # broadcast to n_runs values

    def test_faulty_runs_vary(self):
        campaign = self._campaign(n_runs=8)
        result = campaign.run(FaultSpec(kind="bitflip", level=0.3))
        assert result.std >= 0.0
        assert len(np.unique(result.values)) >= 1

    def test_reproducible_with_same_seed(self):
        r1 = self._campaign().run(FaultSpec(kind="bitflip", level=0.2), 3)
        r2 = self._campaign().run(FaultSpec(kind="bitflip", level=0.2), 3)
        np.testing.assert_array_equal(r1.values, r2.values)

    def test_scenarios_are_independent(self):
        campaign = self._campaign()
        r1 = campaign.run(FaultSpec(kind="bitflip", level=0.2), 0)
        r2 = campaign.run(FaultSpec(kind="bitflip", level=0.2), 1)
        assert not np.array_equal(r1.values, r2.values)

    def test_sweep_order_and_progress(self):
        campaign = self._campaign(n_runs=3)
        messages = []
        results = campaign.sweep(
            bitflip_sweep([0.0, 0.1]), progress=messages.append
        )
        assert len(results) == 2
        assert len(messages) == 2
        assert "fault-free" in messages[0]

    def test_model_restored_after_campaign(self):
        campaign = self._campaign(n_runs=2)
        campaign.run(FaultSpec(kind="bitflip", level=0.3))
        sites = [
            m
            for m in campaign.model.modules()
            if hasattr(m, "weight_fault")
        ]
        assert all(m.weight_fault is None for m in sites)


class TestCampaignEdgeCases:
    def _counting_campaign(self, n_runs=5):
        manual_seed(0)
        model = binary_model()
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 1, 8, 8)))
        y = rng.integers(0, 2, 8)
        calls = []

        def evaluator(m):
            calls.append(1)
            m.eval()
            from repro.tensor import no_grad

            with no_grad():
                return float((m(x).data.argmax(axis=1) == y).mean())

        campaign = MonteCarloCampaign(
            model, evaluator, n_runs=n_runs, base_seed=0, engine=PER_CELL
        )
        return campaign, calls

    def test_none_spec_evaluates_exactly_once_and_broadcasts(self):
        campaign, calls = self._counting_campaign(n_runs=5)
        result = campaign.run(FaultSpec(kind="none", level=0.0))
        assert len(calls) == 1
        assert result.n_runs == 5
        assert np.all(result.values == result.values[0])

    def test_zero_level_spec_short_circuits_like_none(self):
        campaign, calls = self._counting_campaign(n_runs=4)
        result = campaign.run(FaultSpec(kind="bitflip", level=0.0))
        assert len(calls) == 1
        assert np.all(result.values == result.values[0])

    def test_faulty_spec_evaluates_once_per_run(self):
        campaign, calls = self._counting_campaign(n_runs=4)
        campaign.run(FaultSpec(kind="bitflip", level=0.2))
        assert len(calls) == 4

    def test_attach_is_idempotent(self):
        model = binary_model()
        injector = FaultInjector(model)
        spec = FaultSpec(kind="bitflip", level=0.1)
        injector.attach(spec, np.random.default_rng(0))
        injector.attach(spec, np.random.default_rng(0))
        sites = [m for m in model.modules() if hasattr(m, "weight_fault")]
        # Re-attaching replaces hooks instead of stacking them, and one
        # detach restores the ideal chip.
        assert all(m.weight_fault is not None for m in sites)
        injector.detach()
        assert all(m.weight_fault is None for m in sites)

    def test_detach_is_idempotent_and_safe_on_clean_model(self):
        model = binary_model()
        injector = FaultInjector(model)
        injector.detach()  # never attached: must be a no-op
        injector.attach(FaultSpec(kind="additive", level=0.2), np.random.default_rng(0))
        injector.detach()
        injector.detach()
        sites = [m for m in model.modules() if hasattr(m, "weight_fault")]
        signs = [m for m in model.modules() if isinstance(m, SignActivation)]
        assert all(m.weight_fault is None for m in sites)
        assert all(s.pre_fault is None for s in signs)

    def test_layers_get_independent_variation_realizations(self):
        manual_seed(0)
        model = nn.Sequential(
            QuantLinear(8, 8, weight_bits=8), QuantLinear(8, 8, weight_bits=8)
        )
        injector = FaultInjector(model)
        injector.attach(FaultSpec(kind="additive", level=0.3), np.random.default_rng(0))
        model.eval()
        model(Tensor(np.eye(8)))
        a, b = model[0].last_quantized, model[1].last_quantized
        noise_a = model[0].weight_fault(a) - a.codes
        noise_b = model[1].weight_fault(b) - b.codes
        assert not np.array_equal(noise_a, noise_b)


class TestSweepBuilders:
    def test_zero_level_becomes_none(self):
        specs = bitflip_sweep([0.0, 0.05, 0.1])
        assert specs[0].kind == "none"
        assert specs[1].kind == "bitflip" and specs[1].level == 0.05

    @pytest.mark.parametrize(
        "builder,kind",
        [
            (additive_sweep, "additive"),
            (multiplicative_sweep, "multiplicative"),
            (uniform_sweep, "uniform"),
        ],
    )
    def test_builders_tag_kind(self, builder, kind):
        specs = builder([0.0, 0.1])
        assert specs[0].kind == "none"
        assert specs[1].kind == kind
