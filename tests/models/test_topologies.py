"""Tests for the four model topologies across all method configurations."""

import numpy as np
import pytest

from repro.core import InvertedNorm
from repro.eval import build_task, make_evaluator
from repro.eval.campaigns import campaign_eval_cap
from repro.eval.tasks import mc_samples
from repro.faults import (
    PER_CELL,
    EngineConfig,
    FaultSpec,
    WorkCell,
    evaluate_cells_stacked,
    run_cells,
)
from repro.models import (
    M5,
    LSTMForecaster,
    MethodConfig,
    ResNet18,
    UNet,
    all_methods,
    conventional,
    proposed,
    spatial_spindrop,
    spindrop,
)
from repro.nn import BatchNorm2d, Dropout, SpatialDropout2d
from repro.quant import QuantConv2d, QuantLSTMCell, SignActivation
from repro.tensor import Tensor, manual_seed


@pytest.fixture(params=["conventional", "spindrop", "spatial-spindrop", "proposed"])
def method(request):
    return MethodConfig(name=request.param)


class TestMethodConfig:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            MethodConfig(name="magic")

    def test_proposed_builds_inverted_norm(self):
        norm = proposed().make_norm(8)
        assert isinstance(norm, InvertedNorm)

    def test_conventional_builds_batchnorm(self):
        norm = conventional().make_norm(8, dims="2d")
        assert isinstance(norm, BatchNorm2d)

    def test_spindrop_dropout_type(self):
        assert isinstance(spindrop().make_dropout(), Dropout)
        assert isinstance(spatial_spindrop().make_dropout(), SpatialDropout2d)

    def test_spatial_dropout_on_features_is_unit_dropout(self):
        assert type(spatial_spindrop().make_dropout(dims="features")) is Dropout
        assert spatial_spindrop().network("features") == spindrop()
        assert spatial_spindrop().network("1d") == spatial_spindrop()

    def test_unknown_dropout_dims_rejected(self):
        with pytest.raises(ValueError, match="unknown dropout dims"):
            conventional().make_dropout(dims="3d")

    def test_proposed_has_no_block_dropout(self):
        from repro.nn import Identity

        assert isinstance(proposed().make_dropout(), Identity)

    def test_bayesian_flags(self):
        assert not conventional().is_bayesian
        assert spindrop().is_bayesian
        assert proposed().is_bayesian

    def test_with_updates_frozen_config(self):
        m = proposed().with_(p=0.5)
        assert m.p == 0.5 and m.name == "proposed"

    def test_all_methods_order(self):
        names = [m.name for m in all_methods()]
        assert names == ["conventional", "spindrop", "spatial-spindrop", "proposed"]


class TestResNet18:
    def test_forward_shape(self, method, rng):
        manual_seed(0)
        model = ResNet18(method, base_width=8)
        out = model(Tensor(rng.normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 10)

    def test_backward_reaches_all_parameters(self, rng):
        manual_seed(0)
        model = ResNet18(proposed(), base_width=8)
        out = model(Tensor(rng.normal(size=(2, 3, 16, 16))))
        from repro.train import cross_entropy

        cross_entropy(out, np.array([1, 2])).backward()
        with_grad = sum(p.grad is not None for p in model.parameters())
        assert with_grad == len(model.parameters())

    def test_block_convs_are_binary(self):
        model = ResNet18(proposed(), base_width=8)
        quant_convs = [m for m in model.modules() if isinstance(m, QuantConv2d)]
        assert quant_convs
        assert all(c.weight_bits == 1 for c in quant_convs)

    def test_has_sign_activations(self):
        model = ResNet18(proposed(), base_width=8)
        signs = [m for m in model.modules() if isinstance(m, SignActivation)]
        assert len(signs) == 16  # 8 blocks x 2

    def test_stage_count(self):
        model = ResNet18(proposed(), base_width=8)
        assert len(model.stages) == 8  # 4 stages x 2 blocks

    def test_proposed_norm_count(self):
        model = ResNet18(proposed(), base_width=8)
        norms = [m for m in model.modules() if isinstance(m, InvertedNorm)]
        assert len(norms) == 17  # stem + 2 per block

    def test_width_scaling(self):
        narrow = ResNet18(proposed(), base_width=8).num_parameters()
        wide = ResNet18(proposed(), base_width=16).num_parameters()
        assert wide > 3 * narrow


class TestM5:
    def test_forward_shape(self, method, rng):
        manual_seed(0)
        model = M5(method, base_width=8)
        out = model(Tensor(rng.normal(size=(2, 1, 256))))
        assert out.shape == (2, 10)

    def test_eight_bit_weights(self):
        model = M5(proposed(), base_width=8)
        from repro.quant import QuantConv1d, QuantLinear

        convs = [m for m in model.modules() if isinstance(m, QuantConv1d)]
        assert len(convs) == 4  # the five-layer M5: 4 convs + classifier
        assert all(c.weight_bits == 8 for c in convs)
        heads = [m for m in model.modules() if isinstance(m, QuantLinear)]
        assert len(heads) == 1 and heads[0].weight_bits == 8

    def test_backward(self, rng):
        manual_seed(0)
        model = M5(proposed(), base_width=8)
        out = model(Tensor(rng.normal(size=(2, 1, 128))))
        from repro.train import cross_entropy

        cross_entropy(out, np.array([0, 1])).backward()
        assert all(p.grad is not None for p in model.parameters())


class TestLSTMForecaster:
    def test_forward_shape(self, method, rng):
        manual_seed(0)
        model = LSTMForecaster(method, hidden_size=8)
        out = model(Tensor(rng.normal(size=(5, 12, 1))))
        assert out.shape == (5,)

    def test_two_quantized_layers(self):
        model = LSTMForecaster(proposed(), hidden_size=8)
        cells = [m for m in model.modules() if isinstance(m, QuantLSTMCell)]
        assert len(cells) == 2
        assert all(c.weight_bits == 8 for c in cells)

    def test_residual_head_tracks_last_value(self, rng):
        """Prediction stays near the last observation for smooth series."""
        manual_seed(0)
        model = LSTMForecaster(proposed(), hidden_size=8)
        model.eval()
        x = np.linspace(0, 1, 12).reshape(1, 12, 1) * np.ones((4, 1, 1))
        out = model(Tensor(x)).data
        assert np.abs(out - 1.0).max() < 3.0  # anchored at last value

    def test_forecast_autoregressive_shape(self, rng):
        manual_seed(0)
        model = LSTMForecaster(proposed(), hidden_size=8)
        model.eval()
        preds = model.forecast(Tensor(rng.normal(size=(3, 12, 1))), steps=5)
        assert preds.shape == (3, 5)

    def test_masks_frozen_within_sequence(self):
        model = LSTMForecaster(proposed(), hidden_size=8)
        stochastic = [
            m for m in model.modules() if isinstance(m, InvertedNorm)
        ]
        assert all(m.mask_scope == "frozen" for m in stochastic)


class TestLSTMFirstLayerPerChip:
    """Under an MC-sample axis the first layer steps once per chip."""

    def _co2(self, method, preset):
        task = build_task("co2", preset=preset)
        model = task.build_model(method, seed=0)  # untrained: bits only
        evaluator = make_evaluator(
            "co2", task.test_set, method, mc_samples=mc_samples(preset),
            max_samples=campaign_eval_cap(preset),
        )
        return model, evaluator

    def test_stacked_pass_steps_layer_zero_per_chip(self):
        model, evaluator = self._co2(proposed(), "tiny")
        seen = {0: set(), 1: set()}
        for layer, cell in enumerate(model.cells):
            def recording(x, state, forward=cell.forward, layer=layer):
                seen[layer].add(x.shape[0])
                return forward(x, state)
            cell.forward = recording
        chips = 3
        try:
            evaluate_cells_stacked(model, evaluator, [
                WorkCell(0, run, FaultSpec("bitflip", 0.1))
                for run in range(chips)
            ], 0)
        finally:
            for cell in model.cells:
                del cell.forward
        assert seen == {0: {chips}, 1: {chips * mc_samples("tiny")}}

    @pytest.mark.parametrize("method", [proposed(), spindrop()],
                             ids=lambda m: m.name)
    def test_small_shapes_match_the_per_cell_oracle(self, method):
        model, evaluator = self._co2(method, "small")
        assert mc_samples("small") == 6 and len(evaluator.test_set) == 72
        cells = [
            WorkCell(scenario, run, FaultSpec("bitflip", level))
            for scenario, level in ((1, 0.05), (2, 0.2)) for run in range(2)
        ]
        stacked = run_cells(cells, 0, model=model, evaluator=evaluator,
                            engine=EngineConfig(None))
        oracle = run_cells(cells, 0, model=model, evaluator=evaluator,
                           engine=PER_CELL)
        assert stacked.tobytes() == oracle.tobytes()


class TestUNet:
    def test_forward_shape(self, method, rng):
        manual_seed(0)
        model = UNet(method, base_width=8, depth=2)
        out = model(Tensor(rng.normal(size=(2, 1, 16, 16))))
        assert out.shape == (2, 16, 16)

    def test_base_width_must_be_multiple_of_8(self):
        with pytest.raises(ValueError):
            UNet(proposed(), base_width=6)

    def test_binary_weights_4bit_pact(self):
        from repro.quant import PACT

        model = UNet(proposed(), base_width=8, depth=2)
        convs = [m for m in model.modules() if isinstance(m, QuantConv2d)]
        assert all(c.weight_bits == 1 for c in convs)
        pacts = [m for m in model.modules() if isinstance(m, PACT)]
        assert pacts and all(p.bits == 4 for p in pacts)

    def test_proposed_uses_group_mode(self):
        model = UNet(proposed(), base_width=8, depth=2)
        norms = [m for m in model.modules() if isinstance(m, InvertedNorm)]
        assert norms and all(n.mode == "group" and n.num_groups == 8 for n in norms)

    def test_backward(self, rng):
        manual_seed(0)
        model = UNet(proposed(), base_width=8, depth=1)
        out = model(Tensor(rng.normal(size=(1, 1, 8, 8))))
        from repro.train import segmentation_loss

        segmentation_loss(out, (rng.random((1, 8, 8)) > 0.5).astype(float)).backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_depth_changes_bottleneck_resolution(self, rng):
        manual_seed(0)
        shallow = UNet(proposed(), base_width=8, depth=1)
        out = shallow(Tensor(rng.normal(size=(1, 1, 16, 16))))
        assert out.shape == (1, 16, 16)
