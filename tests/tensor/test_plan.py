"""Execution tests for gradient-free forwards of the interpreted engine.

Covers the mechanics below the campaign engine: gradient-free forwards
agree bit-for-bit with graph-recording ones, stochastic modules draw a
fresh mask per pass from the scoped generator, results never alias
earlier outputs or views, eager ops keep exact value semantics (signed
zeros, strided views), and gradients accumulate correctly through
shared and dead subexpressions.
"""

import numpy as np

from repro import nn
from repro.core.bayesian import enable_stochastic_inference
from repro.quant import QuantLinear, invalidate_quantization
from repro.tensor import Tensor, manual_seed, no_grad, ops
from repro.tensor.random import scoped_rng


def gradfree_forward(model, x, rng_seed=0):
    with no_grad(), scoped_rng(np.random.default_rng(rng_seed)):
        return model(Tensor(x)).data


def recording_forward(model, x, rng_seed=0):
    """The same forward with the autograd graph recorded."""
    with scoped_rng(np.random.default_rng(rng_seed)):
        return model(Tensor(x, requires_grad=True)).data


def input_grad(model, x):
    """Gradient of ``model(x).sum()`` with respect to ``x``."""
    t = Tensor(x, requires_grad=True)
    model(t).sum().backward()
    return t.grad


class TestKernelIdentity:
    def test_dense_stack_replay_bit_identical(self):
        manual_seed(0)
        model = nn.Sequential(
            nn.Linear(8, 16),
            nn.Tanh(),
            nn.Linear(16, 4),
            nn.Softmax(),
        )
        model.eval()
        x = np.random.default_rng(1).normal(size=(5, 8))
        first = gradfree_forward(model, x)
        second = gradfree_forward(model, x)
        np.testing.assert_array_equal(first, recording_forward(model, x))
        np.testing.assert_array_equal(second, first)

    def test_conv_pool_stack_replay_bit_identical(self):
        manual_seed(0)
        model = nn.Sequential(
            nn.Conv2d(2, 4, 3, padding=1),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.GroupNorm(2, 4),
            nn.GlobalAvgPool2d(),
        )
        model.eval()
        x = np.random.default_rng(2).normal(size=(3, 2, 8, 8))
        gradfree_forward(model, x)
        repeated = gradfree_forward(model, x)
        np.testing.assert_array_equal(repeated, recording_forward(model, x))

    def test_fresh_inputs_flow_through_replay(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(4, 3), nn.Sigmoid())
        model.eval()
        rng = np.random.default_rng(3)
        x1, x2 = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        gradfree_forward(model, x1)
        second = gradfree_forward(model, x2)  # no state carried from x1
        np.testing.assert_array_equal(second, recording_forward(model, x2))
        assert not np.array_equal(second, gradfree_forward(model, x1))


class TestSourceSteps:
    def test_stochastic_replay_draws_fresh_per_pass(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(4, 4), nn.Dropout(0.5))
        model.eval()
        enable_stochastic_inference(model, True)
        x = np.ones((3, 4))
        with no_grad(), scoped_rng(np.random.default_rng(42)):
            a = model(Tensor(x)).data  # draws mask 1
            b = model(Tensor(x)).data  # draws mask 2
        with scoped_rng(np.random.default_rng(42)):
            ref_a = model(Tensor(x)).data
            ref_b = model(Tensor(x)).data
        np.testing.assert_array_equal(a, ref_a)
        np.testing.assert_array_equal(b, ref_b)
        assert not np.array_equal(a, b)  # masks really differ per pass


class TestBufferPool:
    def test_views_pin_underlying_buffers(self):
        """A reshape view of an intermediate keeps its values."""

        class Viewy(nn.Module):
            def forward(self, x):
                y = x + 1.0
                v = y.reshape(-1)  # view of y
                z = x * 2.0
                return v + z.reshape(-1)

        model = nn.Sequential(Viewy())
        model.eval()
        x = np.arange(12.0).reshape(3, 4)
        out = gradfree_forward(model, x)
        np.testing.assert_array_equal(out, (x + 1.0).ravel() + (x * 2.0).ravel())
        np.testing.assert_array_equal(out, recording_forward(model, x))
        np.testing.assert_array_equal(input_grad(model, x), np.full(x.shape, 3.0))

    def test_output_copy_detaches_from_pool(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(4, 4), nn.Tanh())
        model.eval()
        x = np.random.default_rng(0).normal(size=(2, 4))
        first = gradfree_forward(model, x)
        snapshot = first.copy()
        later = gradfree_forward(model, x * 3.0)
        np.testing.assert_array_equal(first, snapshot)
        assert not np.shares_memory(first, later)


class TestPoisoning:
    def test_where_poisons_trace(self):
        class UsesWhere(nn.Module):
            def forward(self, x):
                return ops.where(x.data > 0, x, x * 0.5)

        model = nn.Sequential(UsesWhere())
        model.eval()
        x = np.random.default_rng(0).normal(size=(3, 3))
        first = gradfree_forward(model, x)
        np.testing.assert_array_equal(first, gradfree_forward(model, x))
        np.testing.assert_array_equal(first, np.where(x > 0, x, x * 0.5))
        np.testing.assert_array_equal(
            input_grad(model, x), np.where(x > 0, 1.0, 0.5)
        )

    def test_non_tensor_output_not_planned(self):
        """Module calls pass non-Tensor outputs through untouched."""

        class TupleOut(nn.Module):
            def forward(self, x):
                return x, x

        model = TupleOut()
        model.eval()
        x = Tensor(np.ones(3))
        with no_grad():
            out = model(x)
        assert isinstance(out, tuple) and out[0] is x and out[1] is x


class TestOptimizerPasses:
    """Eager semantics of op patterns: dead and shared subexpressions,
    duplicated operands, signed-zero constants and strided views."""

    def test_dead_steps_eliminated_and_replay_identical(self):
        class Deady(nn.Module):
            def forward(self, x):
                unused = x * 3.0
                _chained = unused + 1.0
                return x + 1.0

        model = nn.Sequential(Deady())
        model.eval()
        x = np.arange(6.0).reshape(2, 3)
        out = gradfree_forward(model, x)
        np.testing.assert_array_equal(out, x + 1.0)
        np.testing.assert_array_equal(out, recording_forward(model, x))

    def test_elimination_keeps_peak_live_pool_of_survivors(self):
        """Dead branches change neither the value nor the gradient."""

        class Deady(nn.Module):
            def forward(self, x):
                _unused = x * 3.0
                y = x + 1.0
                z = y * 2.0
                return z + y

        class Lean(nn.Module):
            def forward(self, x):
                y = x + 1.0
                z = y * 2.0
                return z + y

        x = np.arange(6.0).reshape(2, 3)
        deady, lean = nn.Sequential(Deady()), nn.Sequential(Lean())
        np.testing.assert_array_equal(
            gradfree_forward(deady, x), gradfree_forward(lean, x)
        )
        np.testing.assert_array_equal(input_grad(deady, x), input_grad(lean, x))
        np.testing.assert_array_equal(input_grad(lean, x), np.full(x.shape, 3.0))

    def test_duplicate_steps_deduped_and_readers_remapped(self):
        """Two identical ops give equal values; both gradients accumulate."""
        x = Tensor(np.arange(3.0), requires_grad=True)
        ones = Tensor(np.ones(3))
        y1 = x + ones
        y2 = x + ones
        np.testing.assert_array_equal(y1.data, y2.data)
        assert not np.shares_memory(y1.data, y2.data)
        (y1 * y2).sum().backward()
        np.testing.assert_array_equal(x.grad, 2.0 * (np.arange(3.0) + 1.0))

    def test_distinct_closure_values_never_deduped(self):
        """Scaling by 2.0, -0.0 and 0.0 keeps every bit pattern apart."""
        x = Tensor(np.array([1.0, -1.0, 0.0]))
        by_neg_zero = (x * -0.0).data
        by_zero = (x * 0.0).data
        np.testing.assert_array_equal(np.signbit(by_neg_zero), [True, False, True])
        np.testing.assert_array_equal(np.signbit(by_zero), [False, True, False])
        total = (x * 2.0 + x * -0.0 + x * 0.0).data
        np.testing.assert_array_equal(total, np.array([2.0, -2.0, 0.0]))

    def test_cse_replay_bit_identical(self):
        class Twice(nn.Module):
            def forward(self, x):
                s = x.sum(axis=1, keepdims=True)
                a = x - s
                b = x - s  # same subexpression, same operands
                return a + b

        model = nn.Sequential(Twice())
        model.eval()
        x = np.random.default_rng(3).normal(size=(4, 5))
        out = gradfree_forward(model, x)
        s = x.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(out, (x - s) + (x - s))
        np.testing.assert_array_equal(out, recording_forward(model, x))
        # d/dx sum(2 (x - rowsum)) = 2 - 2 * n_cols per element
        np.testing.assert_allclose(input_grad(model, x), np.full(x.shape, -8.0))

    def test_gap_strided_view_densified(self):
        """tanh of a gap-strided column slice: exact values, scattered grads."""
        data = np.random.default_rng(5).normal(size=(32, 32))
        x = Tensor(data, requires_grad=True)
        gate = x[:, :16]
        assert np.shares_memory(gate.data, data)  # slicing is a view
        y = ops.tanh(gate)
        np.testing.assert_array_equal(y.data, np.tanh(data[:, :16]))
        y.sum().backward()
        np.testing.assert_array_equal(
            x.grad[:, :16], 1.0 - np.tanh(data[:, :16]) ** 2
        )
        assert not x.grad[:, 16:].any()

    def test_cheap_contiguous_and_transpose_views_left_alone(self):
        """Reshape and transpose of a Tensor share its buffer, copying nothing."""
        data = np.arange(12.0).reshape(3, 4)
        t = Tensor(data)
        flat = t.reshape(-1)
        swapped = t.transpose()
        assert np.shares_memory(flat.data, data)
        assert np.shares_memory(swapped.data, data)
        np.testing.assert_array_equal(flat.data, data.ravel())
        np.testing.assert_array_equal(swapped.data, data.T)

    def test_densified_replay_bit_identical(self):
        class GateSlice(nn.Module):
            def forward(self, x):
                wide = x * 2.0
                return ops.tanh(wide[:, :16])

        model = nn.Sequential(GateSlice())
        model.eval()
        x = np.random.default_rng(2).normal(size=(32, 32))
        out = gradfree_forward(model, x)
        np.testing.assert_array_equal(out, np.tanh((x * 2.0)[:, :16]))
        np.testing.assert_array_equal(out, recording_forward(model, x))


class TestPrefixFold:
    """Repeated forwards recompute from their inputs every time."""

    def test_deterministic_stack_skips_prefix_on_repeat(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(6, 8), nn.ReLU(), nn.Linear(8, 4))
        model.eval()
        x = np.random.default_rng(3).normal(size=(5, 6))
        reference = recording_forward(model, x)
        for _ in range(3):
            np.testing.assert_array_equal(gradfree_forward(model, x), reference)

    def test_changed_entry_misses_and_recomputes(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(4, 4), nn.ReLU(), nn.Linear(4, 2))
        model.eval()
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=(3, 4))
        x2 = rng.normal(size=(3, 4))
        ref1 = recording_forward(model, x1)
        ref2 = recording_forward(model, x2)
        a = gradfree_forward(model, x1)
        b = gradfree_forward(model, x2)  # new content
        c = gradfree_forward(model, x2)
        buf = x1.copy()
        d = gradfree_forward(model, buf)
        buf[...] = x2  # same array object, changed in place
        e = gradfree_forward(model, buf)
        np.testing.assert_array_equal(a, ref1)
        np.testing.assert_array_equal(b, ref2)
        np.testing.assert_array_equal(c, ref2)
        np.testing.assert_array_equal(d, ref1)
        np.testing.assert_array_equal(e, ref2)

    def test_stochastic_stack_prefix_stops_at_source(self):
        """Layers ahead of the first RNG draw stay fixed; draws stay fresh."""
        manual_seed(0)
        model = nn.Sequential(
            nn.Linear(4, 6), nn.ReLU(), nn.Linear(6, 4), nn.Dropout(0.5)
        )
        model.eval()
        enable_stochastic_inference(model, True)
        x = np.ones((3, 4))
        with no_grad(), scoped_rng(np.random.default_rng(42)):
            outs = [model(Tensor(x)).data for _ in range(4)]
        with scoped_rng(np.random.default_rng(42)):
            refs = [model(Tensor(x)).data for _ in range(4)]
        for out, ref in zip(outs, refs):
            np.testing.assert_array_equal(out, ref)
        assert any(not np.array_equal(outs[0], o) for o in outs[1:])
        # Every pass is the deterministic prefix times one dropout mask.
        with no_grad():
            enable_stochastic_inference(model, False)
            prefix = model(Tensor(x)).data
        for out in outs:
            kept = out != 0.0
            np.testing.assert_allclose(out[kept], 2.0 * prefix[kept])


class TestClearPlans:
    def test_clear_plans_resets_module_cache(self):
        manual_seed(0)
        model = nn.Sequential(QuantLinear(3, 3, weight_bits=8), nn.Tanh())
        model.eval()
        x = np.random.default_rng(0).normal(size=(2, 3))
        first = gradfree_forward(model, x)
        assert model[0]._deploy_cache
        assert invalidate_quantization(model) == 1
        assert not model[0]._deploy_cache and not model[0]._record_cache
        np.testing.assert_array_equal(gradfree_forward(model, x), first)
