"""Tests for the deployment-frozen quantization cache.

Physically a chip is programmed once; the quantized layers model that by
caching codes + scale per weight slot, keyed by the parameter's
``(uid, version)`` counter, during gradient-free forwards.  The contract:

* cached forwards are bit-identical to recomputation,
* a training step (optimizer bump / ``load_state_dict``) after deployment
  invalidates transparently — verified via ``last_quantized``,
* gradient-recording forwards never cache (STE training unchanged),
* every fault hook carries its own ``fault_token``, so a fresh hook
  requantizes and an attached one is served from the cache; ad-hoc
  callable hooks without a token keep the legacy applied-every-forward
  semantics,
* the cache holds weights only: dropout masks and the stochastic
  inference switch act on every forward as before,
* campaign cells after a training step equal a fresh model loaded with
  the stepped weights, per cell and stacked, for every fault kind.

Model-level misses are counted by wrapping the two quantizers a slot
miss calls; a hit calls neither.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.bayesian import enable_stochastic_inference
from repro.faults import (
    FaultInjector,
    FaultSpec,
    StackedWeightFault,
    WorkCell,
    evaluate_cells_stacked,
)
from repro.models import LSTMForecaster, proposed
from repro.nn.dropout import set_mask_scope
from repro.quant import (
    QuantConv2d,
    QuantizedWeight,
    QuantLinear,
    QuantLSTMCell,
    freeze_deployment,
    invalidate_quantization,
    quantized_layers,
    warm_quantization,
)
from repro.quant import layers as quant_layers
from repro.quant.layers import deploy_cache_disabled
from repro.tensor import Tensor, chip_batch, manual_seed, no_grad
from repro.tensor.random import scoped_rng
from repro.train import SGD, Adam, mse_loss
from tests.faults.stacking import SWEEPS_BY_KIND, build_pair, micro_data, serial_values


def _loss_step(layer, x):
    """One tiny SGD step through the layer (bumps the weight version)."""
    out = layer(x)
    loss = (out * out).sum()
    layer.zero_grad()
    loss.backward()
    SGD(layer.parameters(), lr=0.05).step()


SLOTS = 2  # quantized weight slots in _model()
X = np.random.default_rng(3).normal(size=(4, 6))


def _model(seed=0):
    manual_seed(seed)
    model = nn.Sequential(
        QuantLinear(6, 5, weight_bits=8),
        nn.Dropout(0.2),
        QuantLinear(5, 2, weight_bits=8),
    )
    model.eval()
    return model


def _forward(model, x, rng_seed=0):
    with no_grad(), scoped_rng(np.random.default_rng(rng_seed)):
        return model(Tensor(x)).data


def _uncached(model, x, rng_seed=0):
    """The same forward with every weight slot requantized from scratch."""
    with deploy_cache_disabled():
        return _forward(model, x, rng_seed)


def _stacked_hook(spec, seeds):
    """A stacked weight-fault hook over one chip per seed."""
    return StackedWeightFault(
        [spec.build_weight_model(np.random.default_rng(s)) for s in seeds]
    )


@pytest.fixture
def misses(monkeypatch):
    """Counts deployment-cache misses (slot quantizations) per test."""
    count = {"n": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            count["n"] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fake_quantize_weight", "binarize_weight"):
        monkeypatch.setattr(
            quant_layers, name, counted(getattr(quant_layers, name))
        )
    return count


class TestCachedForwardIdentity:
    @pytest.mark.parametrize("bits", [1, 8])
    def test_cached_equals_recomputed(self, bits):
        manual_seed(0)
        layer = QuantLinear(6, 4, weight_bits=bits)
        x = Tensor(np.random.default_rng(1).normal(size=(5, 6)))
        with no_grad():
            first = layer(x).data  # miss: programs the cache
            cached = layer(x).data  # hit
            with deploy_cache_disabled():
                recomputed = layer(x).data
        np.testing.assert_array_equal(first, cached)
        np.testing.assert_array_equal(cached, recomputed)

    def test_cache_hit_reuses_record_object(self):
        manual_seed(0)
        layer = QuantConv2d(2, 3, 3, weight_bits=1)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 2, 5, 5)))
        with no_grad():
            layer(x)
            record = layer.last_quantized
            layer(x)
            assert layer.last_quantized is record  # served from cache

    def test_faulty_codes_cached_per_hook(self):
        manual_seed(0)
        layer = QuantLinear(6, 4, weight_bits=8)
        spec = FaultSpec(kind="bitflip", level=0.3)
        layer.weight_fault = spec.build_weight_model(np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).normal(size=(5, 6)))
        with no_grad():
            faulty = layer(x).data
            again = layer(x).data
            with deploy_cache_disabled():
                recomputed = layer(x).data
        np.testing.assert_array_equal(faulty, again)
        np.testing.assert_array_equal(faulty, recomputed)

    def test_new_hook_invalidates_faulty_codes(self):
        manual_seed(0)
        layer = QuantLinear(6, 4, weight_bits=8)
        spec = FaultSpec(kind="bitflip", level=0.5)
        x = Tensor(np.random.default_rng(5).normal(size=(5, 6)))
        with no_grad():
            layer.weight_fault = spec.build_weight_model(np.random.default_rng(1))
            a = layer(x).data
            layer.weight_fault = spec.build_weight_model(np.random.default_rng(2))
            b = layer(x).data
            layer.weight_fault = None
            clean = layer(x).data
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, clean)


class TestModelCache:
    def test_second_forward_is_served_from_cache(self, misses):
        model = _model()
        _forward(model, X)
        assert misses["n"] == SLOTS  # first forward programs every slot
        _forward(model, X)
        assert misses["n"] == SLOTS  # second forward is served from cache

    def test_new_input_shape_reuses_codes(self, misses):
        """Codes are keyed by weights, not inputs: a new shape reuses them."""
        model = _model()
        _forward(model, X)
        small = _forward(model, X[:2])
        assert misses["n"] == SLOTS
        np.testing.assert_array_equal(small, _uncached(model, X[:2]))

    def test_disabled_cache_requantizes_every_forward(self, misses):
        model = _model()
        with deploy_cache_disabled():
            _forward(model, X)
            _forward(model, X)
        assert misses["n"] == 2 * SLOTS
        for layer in (model[0], model[2]):
            assert not layer._deploy_cache and not layer._record_cache

    def test_outputs_survive_later_forwards(self):
        """Held outputs survive later forwards that reuse cached codes."""
        model = _model()
        _forward(model, X)
        first = _forward(model, X, rng_seed=7)
        kept = first.copy()
        _forward(model, X * 3.0, rng_seed=8)
        np.testing.assert_array_equal(first, kept)

    def test_one_entry_per_slot_across_hooks(self):
        """At most one resident entry per slot, however many hooks come
        and go; ``detach`` drops each faulty entry and keeps the clean
        one."""
        model = _model()
        layers = (model[0], model[2])
        injector = FaultInjector(model)
        spec = FaultSpec(kind="additive", level=0.2)
        for seed in range(12):
            injector.attach(spec, np.random.default_rng(seed))
            _forward(model, X)
            for layer in layers:
                (key, _, _), = layer._deploy_cache.values()
                assert key[1] == layer.weight_fault.fault_token
            injector.detach()
            for layer in layers:
                assert not layer._deploy_cache
                assert list(layer._record_cache) == ["weight"]
        _forward(model, X)
        injector.detach()
        for layer in layers:
            (key, _, _), = layer._deploy_cache.values()
            assert key[1] == quant_layers._CLEAN

    def test_recording_forward_leaves_the_cache_empty(self):
        """Gradient-recording forwards never touch the deployment cache."""
        model = _model()
        model.train()
        model(Tensor(X))
        for layer in (model[0], model[2]):
            assert not layer._deploy_cache and not layer._record_cache


class TestBinaryCodes:
    """A cached 1-bit record holds ``int8`` codes; every fault hook and
    the dequantizing multiply give the bits of float64 codes."""

    def _binary_net(self):
        # Binary weights and no sign activation: variation falls back to
        # the weight codes, as on the PACT-activated U-Net.
        manual_seed(0)
        model = nn.Sequential(
            QuantConv2d(2, 4, 3, weight_bits=1), nn.ReLU(),
            QuantConv2d(4, 3, 3, weight_bits=1),
        )
        model.eval()
        return model

    def test_only_the_cached_binary_record_is_int8(self):
        manual_seed(0)
        binary, wide = QuantLinear(6, 4, weight_bits=1), QuantLinear(6, 4)
        x = Tensor(np.random.default_rng(1).normal(size=(5, 6)))
        with no_grad():
            binary(x)
            wide(x)
        assert binary.last_quantized.codes.dtype == np.int8
        assert wide.last_quantized.codes.dtype == np.float64
        binary(x)  # gradient-recording: a fresh float64 record
        assert binary.last_quantized.codes.dtype == np.float64

    @pytest.mark.parametrize("spec", [
        FaultSpec(kind="bitflip", level=0.3),
        FaultSpec(kind="stuck", level=0.3, stuck_to="low"),
        FaultSpec(kind="stuck", level=0.3, stuck_to="high"),
        FaultSpec(kind="stuck", level=0.3, stuck_to="zero"),
        FaultSpec(kind="additive", level=0.5),
    ], ids=lambda spec: f"{spec.kind}-{spec.stuck_to}")
    def test_int8_codes_give_the_float64_bits(self, spec):
        model = self._binary_net()
        x = np.random.default_rng(2).normal(size=(2, 2, 7, 7))
        clean = _forward(model, x)
        assert clean.tobytes() == _uncached(model, x).tobytes()
        injector = FaultInjector(model)
        injector.attach(spec, np.random.default_rng(3))
        for layer in (model[0], model[2]):
            assert layer.weight_fault is not None
        faulty = _forward(model, x)
        # Uncached forwards requantize with float64 codes; the hooks keep
        # their frozen patterns.
        assert faulty.tobytes() == _uncached(model, x).tobytes()
        for layer in (model[0], model[2]):
            record = layer._record_cache["weight"][1]
            assert record.codes.dtype == np.int8
            wide = QuantizedWeight(record.codes.astype(np.float64),
                                   record.scale, 1)
            narrow = layer.weight_fault(record) * record.scale
            assert narrow.dtype == np.float64
            assert narrow.tobytes() == (
                layer.weight_fault(wide) * wide.scale).tobytes()
        injector.detach()
        assert not np.array_equal(faulty, clean)


class TestTrainingInvalidation:
    @pytest.mark.parametrize("bits", [1, 8])
    def test_training_step_after_deploy_recomputes_codes(self, bits):
        manual_seed(0)
        layer = QuantLinear(6, 4, weight_bits=bits)
        x = Tensor(np.random.default_rng(6).normal(size=(5, 6)))
        freeze_deployment(layer)
        with no_grad():
            layer(x)
        deployed = layer.last_quantized
        deployed_scale = np.copy(deployed.scale)
        layer.train()
        _loss_step(layer, x)
        layer.eval()
        with no_grad():
            layer(x)
        assert layer.last_quantized is not deployed
        # The reprogrammed snapshot reflects the updated weights: the scale
        # (max|w| / qmax, or per-filter mean|w| for binary) tracks any
        # weight change even when no integer code happens to flip.
        assert not np.array_equal(layer.last_quantized.scale, deployed_scale)

    def test_grad_enabled_forward_never_serves_cache(self):
        manual_seed(0)
        layer = QuantLinear(6, 4, weight_bits=8)
        x = Tensor(np.random.default_rng(7).normal(size=(5, 6)))
        with no_grad():
            layer(x)
        cached = layer.last_quantized
        out = layer(x)  # gradient-recording: fresh record, backward intact
        assert layer.last_quantized is not cached
        assert out.requires_grad

    def test_load_state_dict_invalidates(self):
        manual_seed(0)
        layer = QuantLinear(6, 4, weight_bits=8)
        x = Tensor(np.random.default_rng(8).normal(size=(5, 6)))
        with no_grad():
            layer(x)
        before = layer.last_quantized
        state = layer.state_dict()
        state["weight"] = state["weight"] + 0.1
        layer.load_state_dict(state)
        with no_grad():
            layer(x)
        assert layer.last_quantized is not before
        assert not np.array_equal(layer.last_quantized.codes, before.codes)

    def test_lstm_cell_slots_invalidate_independently(self):
        manual_seed(0)
        cell = QuantLSTMCell(3, 5, weight_bits=8)
        x = Tensor(np.random.default_rng(9).normal(size=(2, 3)))
        state = (Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5))))
        with no_grad():
            cell(x, state)
        rec_ih, rec_hh = cell.last_quantized, cell.last_quantized_hh
        cell.weight_ih.data[...] += 0.05
        cell.weight_ih.mark_updated()
        with no_grad():
            cell(x, state)
        assert cell.last_quantized is not rec_ih
        assert cell.last_quantized_hh is rec_hh  # untouched slot stays warm


    def test_optimizer_step_requantizes_each_slot_once(self, misses):
        model = _model()
        _forward(model, X)
        assert misses["n"] == SLOTS
        # One training step: backward + Adam.step() bumps every parameter's
        # version counter.
        model.train()
        optimizer = Adam(model.parameters(), lr=1e-2)
        pred = model(Tensor(X))
        loss = mse_loss(pred, np.zeros(pred.shape))
        model.zero_grad()
        loss.backward()
        optimizer.step()
        model.eval()
        after_training = misses["n"]
        stepped = _forward(model, X)
        assert misses["n"] == after_training + SLOTS  # new versions: re-quantize
        np.testing.assert_array_equal(stepped, _forward(model, X))
        assert misses["n"] == after_training + SLOTS
        np.testing.assert_array_equal(stepped, _uncached(model, X))

    def test_load_state_dict_requantizes_unchanged_weights(self, misses):
        model = _model()
        _forward(model, X)
        model.load_state_dict(model.state_dict())  # bumps versions
        _forward(model, X)
        assert misses["n"] == 2 * SLOTS

    def test_mark_updated_serves_the_new_weights(self):
        model = _model()
        _forward(model, X)
        reference = _forward(model, X, rng_seed=1)
        layer = model[0]
        layer.weight.data[...] += 0.5
        layer.weight.mark_updated()
        changed = _forward(model, X, rng_seed=1)
        assert not np.array_equal(reference, changed)
        np.testing.assert_array_equal(changed, _uncached(model, X, rng_seed=1))

    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_cells_after_a_step_equal_a_fresh_model(self, kind):
        """Per-cell and stacked cells after a training step equal a
        freshly built model holding the stepped weights.  A fault-free
        cell reads the clean cache entry, which no fault hook re-keys:
        only the parameter versions can invalidate it."""
        model, evaluator = build_pair()
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(SWEEPS_BY_KIND[kind])
            for run in range(2)
        ]
        clean = [WorkCell(len(cells), 0, FaultSpec(kind="none", level=0.0))]
        serial_values(model, evaluator, cells + clean, 5)  # warm the caches
        evaluate_cells_stacked(model, evaluator, cells, 5)
        before = [p.data.copy() for p in model.parameters()]
        x, _ = micro_data()
        model.train()
        pred = model(Tensor(x))
        loss = mse_loss(pred, np.ones(pred.shape))
        model.zero_grad()
        loss.backward()
        Adam(model.parameters(), lr=0.5).step()
        model.eval()
        assert any(
            not np.array_equal(b, p.data)
            for b, p in zip(before, model.parameters())
        )
        fresh, fresh_evaluator = build_pair(seed=1)
        fresh.load_state_dict(model.state_dict())
        fresh.eval()
        np.testing.assert_array_equal(
            serial_values(model, evaluator, cells + clean, 5),
            serial_values(fresh, fresh_evaluator, cells + clean, 5),
        )
        np.testing.assert_array_equal(
            evaluate_cells_stacked(model, evaluator, cells, 5),
            evaluate_cells_stacked(fresh, fresh_evaluator, cells, 5),
        )


class TestFaultHookKeying:
    def test_fresh_hook_with_equal_patterns_requantizes(self, misses):
        """Each freshly attached hook re-quantizes (token keying)."""
        model = _model()
        injector = FaultInjector(model)
        spec = FaultSpec(kind="bitflip", level=0.2)
        values = []
        for _ in range(2):
            injector.attach(spec, np.random.default_rng(99))
            values.append(_forward(model, X, rng_seed=1))
            injector.detach()
        # Same attach rng => same fault patterns => same values, but the
        # hooks carry fresh fault tokens, so each attach quantized anew.
        np.testing.assert_array_equal(values[0], values[1])
        assert misses["n"] == 2 * SLOTS

    def test_attached_stacked_hook_is_served_from_cache(self, misses):
        """Forwards under one attached stacked hook reuse its faulty codes."""
        model = _model()
        spec = FaultSpec(kind="additive", level=0.3)
        for layer in (model[0], model[2]):
            layer.weight_fault = _stacked_hook(spec, [11, 22])
        stacked = np.broadcast_to(X[None], (2,) + X.shape).copy()
        with chip_batch(2):
            first = _forward(model, stacked)
            second = _forward(model, stacked)
            recomputed = _uncached(model, stacked)
        for layer in (model[0], model[2]):
            layer.weight_fault = None
        assert misses["n"] == 2 * SLOTS  # first and uncached pass; second hit
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, recomputed)

    def test_stacked_hooks_with_other_seeds_requantize(self, misses):
        model = _model()
        spec = FaultSpec(kind="additive", level=0.3)
        stacked = np.broadcast_to(X[None], (2,) + X.shape).copy()
        outputs = []
        for seeds in ([11, 22], [33, 44]):
            for layer in (model[0], model[2]):
                layer.weight_fault = _stacked_hook(spec, seeds)
            with chip_batch(2):
                outputs.append(_forward(model, stacked))
            for layer in (model[0], model[2]):
                layer.weight_fault = None
        assert misses["n"] == 2 * SLOTS
        assert not np.array_equal(outputs[0], outputs[1])


class TestAdHocHooks:
    def test_callable_hook_applied_every_forward(self):
        manual_seed(0)
        layer = QuantLinear(4, 2, weight_bits=8)
        calls = []

        def hook(qw):
            calls.append(1)
            return qw.codes

        layer.weight_fault = hook
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        with no_grad():
            layer(x)
            layer(x)
            layer(x)
        assert len(calls) == 3  # no fault_token → never value-cached


    def test_hooked_slot_is_never_cached(self, misses):
        model = _model()
        calls = []

        def hook(qw):  # no fault_token: never value-cached
            calls.append(1)
            return qw.codes

        model[0].weight_fault = hook
        _forward(model, X)
        _forward(model, X)
        model[0].weight_fault = None
        assert len(calls) == 2  # applied on every forward
        assert misses["n"] == 2 + 1  # hooked slot twice, clean slot once
        assert "weight" not in model[0]._deploy_cache


class TestSamplingState:
    """The cache holds weights only; sampling state acts on every forward."""

    def test_mask_scope_change_resamples(self):
        """Frozen scope holds one mask; setting the scope again resamples it."""
        model = _model()
        enable_stochastic_inference(model, True)
        with no_grad(), scoped_rng(np.random.default_rng(0)):
            per_call = [model(Tensor(X)).data for _ in range(2)]
            set_mask_scope(model, "frozen")
            frozen = [model(Tensor(X)).data for _ in range(2)]
            set_mask_scope(model, "frozen")  # resamples the held mask
            refrozen = model(Tensor(X)).data
        enable_stochastic_inference(model, False)
        assert not np.array_equal(per_call[0], per_call[1])
        np.testing.assert_array_equal(frozen[0], frozen[1])
        assert not np.array_equal(frozen[0], refrozen)

    def test_stochastic_inference_toggle(self):
        model = _model()
        deterministic = _forward(model, X)
        enable_stochastic_inference(model, True)
        sampled = _forward(model, X)
        enable_stochastic_inference(model, False)
        assert not np.array_equal(deterministic, sampled)
        np.testing.assert_array_equal(deterministic, _forward(model, X))

    def test_mask_frozen_before_the_cache_fills_is_kept(self):
        manual_seed(0)
        model = nn.Sequential(nn.Dropout(0.3), QuantLinear(6, 2, weight_bits=8))
        model.eval()
        enable_stochastic_inference(model, True)
        set_mask_scope(model, "frozen")
        with no_grad(), scoped_rng(np.random.default_rng(0)):
            with deploy_cache_disabled():
                uncached = model(Tensor(X)).data  # freezes the mask
            cached = model(Tensor(X)).data  # programs the cache
            again = model(Tensor(X)).data
        np.testing.assert_array_equal(uncached, cached)
        np.testing.assert_array_equal(cached, again)
        assert invalidate_quantization(model) == 1


class TestDeployHelpers:
    def test_warm_quantization_counts_slots(self):
        manual_seed(0)
        model = LSTMForecaster(proposed(), hidden_size=8, num_layers=2)
        # 2 LSTM cells x 2 slots + 1 head = 5 weight slots
        assert warm_quantization(model) == 5

    def test_freeze_then_forward_serves_cache(self):
        manual_seed(0)
        model = nn.Sequential(QuantLinear(4, 4, weight_bits=8), nn.ReLU())
        freeze_deployment(model)
        layer = next(quantized_layers(model))
        warmed = layer._record_cache["weight"][1]
        with no_grad():
            model(Tensor(np.zeros((2, 4))))
        assert layer.last_quantized is warmed

    def test_invalidate_clears_all_layers(self):
        manual_seed(0)
        model = nn.Sequential(
            QuantLinear(4, 4, weight_bits=8), QuantLinear(4, 2, weight_bits=8)
        )
        warm_quantization(model)
        assert invalidate_quantization(model) == 2
        for layer in quantized_layers(model):
            assert not layer._record_cache and not layer._deploy_cache

    def test_forward_after_invalidate_gives_the_same_values(self):
        manual_seed(0)
        model = nn.Sequential(QuantLinear(3, 3, weight_bits=8), nn.Tanh())
        model.eval()
        x = np.random.default_rng(0).normal(size=(2, 3))
        first = _forward(model, x)
        assert model[0]._deploy_cache
        assert invalidate_quantization(model) == 1
        assert not model[0]._deploy_cache and not model[0]._record_cache
        np.testing.assert_array_equal(_forward(model, x), first)
