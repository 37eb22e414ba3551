"""Cache keying, invalidation and LRU bounds behind campaign evaluation.

Two caches let repeated gradient-free forwards skip work without ever
changing a value:

* the per-layer **deployment cache** (:mod:`repro.quant.layers`) keeps
  each weight slot's programmed codes.  Its key rotates whenever that
  state can change: optimizer steps and ``load_state_dict`` bump every
  touched :class:`~repro.nn.module.Parameter`'s ``(uid, version)``
  counter, and every fault hook carries its own ``fault_token``.  Ad-hoc
  callable hooks have no token and are re-applied on every forward.
* the content-addressed **result store** (:mod:`repro.eval.cache`) keeps
  campaign values and, when bounded, evicts least-recently-served
  entries.

Deployment-cache misses are counted by wrapping the two quantizers a
slot miss calls; a hit calls neither.
"""

import os

import numpy as np
import pytest

from repro import nn
from repro.core.bayesian import enable_stochastic_inference
from repro.eval.cache import ResultStore
from repro.faults import FaultInjector, FaultSpec, StackedWeightFault
from repro.nn.dropout import set_mask_scope
from repro.quant import QuantLinear, invalidate_quantization
from repro.quant import layers as quant_layers
from repro.quant.layers import deploy_cache_disabled
from repro.tensor import Tensor, manual_seed, no_grad
from repro.tensor.chipbatch import chip_batch
from repro.tensor.random import scoped_rng
from repro.train import Adam, mse_loss

SLOTS = 2  # quantized weight slots in build_model()


def build_model(seed=0):
    manual_seed(seed)
    model = nn.Sequential(
        QuantLinear(6, 5, weight_bits=8),
        nn.Dropout(0.2),
        QuantLinear(5, 2, weight_bits=8),
    )
    model.eval()
    return model


def forward(model, x, rng_seed=0):
    with no_grad(), scoped_rng(np.random.default_rng(rng_seed)):
        return model(Tensor(x)).data


def interpreted(model, x, rng_seed=0):
    """The same forward with every weight slot requantized from scratch."""
    with deploy_cache_disabled():
        return forward(model, x, rng_seed)


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


X = np.random.default_rng(3).normal(size=(4, 6))


class TestTraceReplayLifecycle:
    def test_second_call_replays(self, misses):
        model = build_model()
        forward(model, X)
        assert misses["n"] == SLOTS  # first forward programs every slot
        forward(model, X)
        assert misses["n"] == SLOTS  # second forward is served from cache

    def test_replay_matches_interpreted(self):
        model = build_model()
        forward(model, X)  # program the cache
        cached = forward(model, X, rng_seed=11)
        np.testing.assert_array_equal(cached, interpreted(model, X, rng_seed=11))

    def test_new_input_shape_new_plan(self, misses):
        """Codes are keyed by weights, not inputs: a new shape reuses them."""
        model = build_model()
        forward(model, X)
        small = forward(model, X[:2])
        assert misses["n"] == SLOTS
        np.testing.assert_array_equal(small, interpreted(model, X[:2]))

    def test_no_plan_routing_disabled(self, misses):
        model = build_model()
        with deploy_cache_disabled():
            forward(model, X)
            forward(model, X)
        assert misses["n"] == 2 * SLOTS
        for layer in (model[0], model[2]):
            assert not layer._deploy_cache and not layer._record_cache

    def test_returned_array_detached_from_buffers(self):
        """Held outputs survive later forwards that reuse cached codes."""
        model = build_model()
        forward(model, X)
        first = forward(model, X, rng_seed=7)
        kept = first.copy()
        forward(model, X * 3.0, rng_seed=8)
        np.testing.assert_array_equal(first, kept)

    def test_lru_eviction_bounds_cache(self):
        """One resident entry per slot, however many hooks come and go."""
        model = build_model()
        injector = FaultInjector(model)
        spec = FaultSpec(kind="additive", level=0.2)
        for seed in range(12):
            injector.attach(spec, np.random.default_rng(seed))
            forward(model, X)
            injector.detach()
        for layer in (model[0], model[2]):
            assert list(layer._deploy_cache) == ["weight"]


class TestLRUBoundary:
    """Exact behaviour of a bounded result store at its capacity edge."""

    CAP = 4

    @classmethod
    def _put(cls, store, i):
        """Store entry ``i``, pin its recency to a distinct old mtime, and
        bound the store to ``CAP`` entries."""
        key = f"cell-{i}"
        store.put(key, np.full(3, float(i)))
        stamp = 1_000_000 + i
        os.utime(store.address(key), (stamp, stamp))
        store.evict(cls.CAP)

    @staticmethod
    def _resident(store, count):
        return [i for i in range(count) if store.address(f"cell-{i}").exists()]

    def test_capacity_exactly_reached_keeps_all_plans(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(self.CAP):
            self._put(store, i)
        assert len(store) == self.CAP and store.evicted == 0
        reader = ResultStore(tmp_path)  # fresh session: served from disk
        for i in range(self.CAP):
            np.testing.assert_array_equal(reader.get(f"cell-{i}"), np.full(3, i))
        assert reader.hits == self.CAP and reader.misses == 0

    def test_one_past_capacity_evicts_exactly_the_oldest(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(self.CAP):
            self._put(store, i)
        store.put("cell-new", np.zeros(3))
        store.evict(self.CAP)  # newest mtime: now
        assert store.evicted == 1 and len(store) == self.CAP
        assert self._resident(store, self.CAP) == list(range(1, self.CAP))
        reader = ResultStore(tmp_path)
        assert reader.get("cell-0") is None  # the evicted key misses
        assert reader.get("cell-new") is not None

    def test_replay_refreshes_recency(self, tmp_path):
        """A served entry becomes most recent and survives the next eviction."""
        store = ResultStore(tmp_path)
        for i in range(self.CAP):
            self._put(store, i)
        assert ResultStore(tmp_path).get("cell-0") is not None  # touch LRU
        store.put("cell-new", np.zeros(3))
        store.evict(self.CAP)
        assert self._resident(store, self.CAP) == [0] + list(range(2, self.CAP))
        assert store.evicted == 1

    def test_opt_counters_accumulate_across_eviction(self, tmp_path):
        """Store counters are monotone totals, never reset by eviction."""
        store = ResultStore(tmp_path)
        for i in range(self.CAP + 3):
            self._put(store, i)
        first = store.snapshot()
        assert first["puts"] == self.CAP + 3 and first["evicted"] == 3
        store.get("cell-0")  # evicted: a miss
        for i in range(self.CAP + 3, self.CAP + 5):
            self._put(store, i)
        second = store.snapshot()
        for name, value in first.items():
            assert second[name] >= value
        assert second["puts"] == first["puts"] + 2
        assert second["evicted"] == first["evicted"] + 2
        assert second["misses"] == first["misses"] + 1


class TestParameterVersionInvalidation:
    def test_optimizer_step_forces_retrace(self, misses):
        model = build_model()
        forward(model, X)
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
        stepped = forward(model, X)
        assert misses["n"] == after_training + SLOTS  # new versions: re-quantize
        np.testing.assert_array_equal(stepped, forward(model, X))
        assert misses["n"] == after_training + SLOTS
        np.testing.assert_array_equal(stepped, interpreted(model, X))

    def test_load_state_dict_forces_retrace(self, misses):
        model = build_model()
        forward(model, X)
        model.load_state_dict(model.state_dict())  # bumps versions
        forward(model, X)
        assert misses["n"] == 2 * SLOTS

    def test_stale_plan_never_served_after_weight_change(self):
        model = build_model()
        forward(model, X)
        reference = forward(model, X, rng_seed=1)
        layer = model[0]
        layer.weight.data[...] += 0.5
        layer.weight.mark_updated()
        changed = forward(model, X, rng_seed=1)
        assert not np.array_equal(reference, changed)
        np.testing.assert_array_equal(changed, interpreted(model, X, rng_seed=1))


def stacked_hook(spec, seeds):
    """A stacked weight-fault hook over one chip per seed."""
    return StackedWeightFault(
        [spec.build_weight_model(np.random.default_rng(s)) for s in seeds]
    )


class TestFaultHookInvalidation:
    def test_new_fault_token_forces_retrace(self, misses):
        """Each freshly attached hook re-quantizes (token keying)."""
        model = build_model()
        injector = FaultInjector(model)
        spec = FaultSpec(kind="bitflip", level=0.2)
        values = []
        for _ in range(2):
            injector.attach(spec, np.random.default_rng(99))
            values.append(forward(model, X, rng_seed=1))
            injector.detach()
        # Same attach rng => same fault patterns => same values, but the
        # hooks carry fresh fault tokens, so each attach quantized anew.
        np.testing.assert_array_equal(values[0], values[1])
        assert misses["n"] == 2 * SLOTS

    def test_identical_batched_hook_reuses_plan(self, misses):
        """Forwards under one attached batched hook reuse its faulty codes."""
        model = build_model()
        spec = FaultSpec(kind="additive", level=0.3)
        for layer in (model[0], model[2]):
            layer.weight_fault = stacked_hook(spec, [11, 22])
        stacked = np.broadcast_to(X[None], (2,) + X.shape).copy()
        with chip_batch(2):
            first = forward(model, stacked)
            second = forward(model, stacked)
            with deploy_cache_disabled():
                recomputed = forward(model, stacked)
        for layer in (model[0], model[2]):
            layer.weight_fault = None
        assert misses["n"] == 2 * SLOTS  # first and uncached pass; second hit
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, recomputed)

    def test_different_batched_seeds_force_retrace(self, misses):
        model = build_model()
        spec = FaultSpec(kind="additive", level=0.3)
        stacked = np.broadcast_to(X[None], (2,) + X.shape).copy()
        outputs = []
        for seeds in ([11, 22], [33, 44]):
            for layer in (model[0], model[2]):
                layer.weight_fault = stacked_hook(spec, seeds)
            with chip_batch(2):
                outputs.append(forward(model, stacked))
            for layer in (model[0], model[2]):
                layer.weight_fault = None
        assert misses["n"] == 2 * SLOTS
        assert not np.array_equal(outputs[0], outputs[1])

    def test_ad_hoc_hook_falls_back_to_interpretation(self, misses):
        model = build_model()
        calls = []

        def hook(qw):  # no fault_token: never value-cached
            calls.append(1)
            return qw.codes

        model[0].weight_fault = hook
        forward(model, X)
        forward(model, X)
        model[0].weight_fault = None
        assert len(calls) == 2  # applied on every forward
        assert misses["n"] == 2 + 1  # hooked slot twice, clean slot once
        assert "weight" not in model[0]._deploy_cache


class TestSamplingStateKeying:
    def test_mask_scope_change_forces_retrace(self):
        """Frozen scope holds one mask; switching scope resamples it."""
        model = build_model()
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

    def test_stochastic_inference_toggle_forces_retrace(self):
        model = build_model()
        deterministic = forward(model, X)
        enable_stochastic_inference(model, True)
        sampled = forward(model, X)
        enable_stochastic_inference(model, False)
        assert not np.array_equal(deterministic, sampled)
        np.testing.assert_array_equal(deterministic, forward(model, X))

    def test_training_mode_never_planned(self):
        """Gradient-recording forwards never touch the deployment cache."""
        model = build_model()
        model.train()
        model(Tensor(X))
        for layer in (model[0], model[2]):
            assert not layer._deploy_cache and not layer._record_cache


class TestTracePoisoning:
    def test_kernel_less_op_poisons_and_falls_back(self):
        """A custom ``Tensor._make`` op runs forward and backward."""

        class Odd(nn.Module):
            def forward(self, x):
                data = x.data * 2.0

                def backward(grad):
                    x._accumulate(2.0 * grad)

                return Tensor._make(data, [x], backward, "odd")

        model = nn.Sequential(Odd())
        model.eval()
        first = forward(model, X)
        np.testing.assert_array_equal(first, forward(model, X))
        np.testing.assert_array_equal(first, X * 2.0)
        x = Tensor(X, requires_grad=True)
        model(x).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(X.shape, 2.0))

    def test_frozen_mask_predating_trace_poisons(self):
        """A mask frozen before a deployment cache fill is kept after it."""
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
