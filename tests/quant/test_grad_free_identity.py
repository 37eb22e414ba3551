"""Gradient-free forwards give the graph path's bits.

With gradients off, :meth:`QuantLSTMCell.forward` runs its step on plain
arrays in reused gate buffers, and :func:`repro.nn.normalization.normalize`
computes its mean and centred values once.  The oracle is the graph path
itself: the same forward under :func:`enable_grad` must give the same
bits as under :func:`no_grad`, for every method, unstacked and stacked,
with fault hooks attached, and on threads running at once.

The same holds for whole modules (dense, conv and pool stacks, dropout,
views, dead and shared subexpressions, custom ops), whose repeated
forwards recompute from their inputs and never alias an earlier output,
and for seeded random op programs over the ``Tensor`` surface
(:class:`TestForwardFuzz`).
"""

import contextlib
import os
import random
import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.core.bayesian import enable_stochastic_inference
from repro.faults import FaultInjector, FaultSpec, StackedWeightFault
from repro.models import LSTMForecaster, all_methods
from repro.nn.normalization import normalize
from repro.quant import QuantLSTMCell
from repro.tensor import (
    Tensor,
    chip_batch,
    enable_grad,
    manual_seed,
    no_grad,
    ops,
    scoped_rng,
)
from repro.tensor.chipbatch import ChipBatchRng
from repro.tensor.ops import _stable_sigmoid
from repro.tensor.random import get_rng

METHODS = {m.name: m for m in all_methods()}
HOOK_KINDS = ("bitflip", "multiplicative")
CHIPS = 3


def _bits(array):
    array = np.asarray(array)
    return array.shape, array.dtype, array.tobytes()


def _forecaster(method_name, hidden=16):
    manual_seed(0)
    model = LSTMForecaster(METHODS[method_name], hidden_size=hidden)
    model.eval()
    enable_stochastic_inference(model)
    return model


def _windows(n=9, t=7, seed=1):
    return np.random.default_rng(seed).normal(size=(n, t, 1))


def _both_modes(run):
    """``run()`` under no_grad and under enable_grad."""
    with no_grad():
        free = run()
    with enable_grad():
        graph = run()
    return free, graph


def _unstacked_forward(model, x, kind):
    def run():
        FaultInjector(model).attach(
            FaultSpec(kind=kind, level=0.2), np.random.default_rng(5)
        )
        try:
            with scoped_rng(np.random.default_rng(11)):
                return model(Tensor(x)).data
        finally:
            FaultInjector(model).detach()

    return run


def _stacked_forward(model, x, kind):
    spec = FaultSpec(kind=kind, level=0.2)

    def run():
        FaultInjector(model).attach_scenario_batched(
            [spec] * CHIPS, [np.random.default_rng(5 + i) for i in range(CHIPS)]
        )
        try:
            rng = ChipBatchRng([np.random.default_rng(11 + i) for i in range(CHIPS)])
            inp = np.broadcast_to(x[None], (CHIPS,) + x.shape).copy()
            with chip_batch(CHIPS), scoped_rng(rng):
                return model(Tensor(inp)).data
        finally:
            FaultInjector(model).detach()

    return run


class TestForecasterIdentity:
    @pytest.mark.parametrize("kind", HOOK_KINDS)
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_unstacked(self, method, kind):
        model = _forecaster(method)
        free, graph = _both_modes(_unstacked_forward(model, _windows(), kind))
        assert _bits(free) == _bits(graph)

    @pytest.mark.parametrize("kind", HOOK_KINDS)
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_chip_stacked(self, method, kind):
        model = _forecaster(method)
        free, graph = _both_modes(_stacked_forward(model, _windows(), kind))
        assert free.shape == (CHIPS, 9)
        assert _bits(free) == _bits(graph)

    def test_fault_free_and_faulty_differ(self):
        # Guards the tests above against comparing two unfaulted runs.
        model = _forecaster("proposed")
        x = _windows()
        with no_grad(), scoped_rng(np.random.default_rng(11)):
            clean = model(Tensor(x)).data
        with no_grad():
            faulty = _unstacked_forward(model, x, "bitflip")()
        assert not np.array_equal(clean, faulty)


class TestCellOperandLayouts:
    """Products that only broadcast to the gate shape (one stacked matrix,
    unstacked inputs or states) take the fresh-array branch."""

    def _cell(self):
        manual_seed(3)
        return QuantLSTMCell(2, 4)

    def _step(self, cell, x, h, c):
        return _both_modes(lambda: [t.data for t in cell(Tensor(x), (Tensor(h), Tensor(c)))])

    @pytest.mark.parametrize("stacked_slot", ["weight_fault", "weight_fault_hh"])
    def test_one_stacked_matrix(self, stacked_slot):
        cell = self._cell()
        spec = FaultSpec(kind="bitflip", level=0.3)
        setattr(cell, stacked_slot, StackedWeightFault(
            [spec.build_weight_model(np.random.default_rng(s)) for s in (1, 2)]
        ))
        rng = np.random.default_rng(0)
        x, h, c = rng.normal(size=(5, 2)), rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        with chip_batch(2):
            free, graph = self._step(cell, x, h, c)
        assert free[0].shape == (2, 5, 4)
        for a, b in zip(free, graph):
            assert _bits(a) == _bits(b)

    def test_stacked_state_unstacked_weights(self):
        cell = self._cell()
        rng = np.random.default_rng(1)
        x, h, c = rng.normal(size=(5, 2)), rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4))
        free, graph = self._step(cell, x, h, c)
        for a, b in zip(free, graph):
            assert _bits(a) == _bits(b)

    @pytest.mark.parametrize("chips", [None, 3])
    def test_one_input_feature_with_signed_zeros(self, chips):
        """A one-feature input takes the multiply branch; with ±0.0
        planted in the inputs, the codes and the bias it keeps the matmul's
        bits."""
        manual_seed(4)
        cell = QuantLSTMCell(1, 4)
        cell.weight_ih.data[::3] = 1e-6  # quantizes to +0.0 codes
        cell.weight_ih.data[1::3] = -1e-6  # ... and to -0.0 codes
        cell.bias_ih.data[::2] = -0.0
        rng = np.random.default_rng(5)
        lead = (5,) if chips is None else (chips, 5)
        x, h, c = (rng.normal(size=lead + (n,)) for n in (1, 4, 4))
        x[..., ::2, :] = -0.0
        x[..., 1::4, :] = 0.0
        if chips is not None:
            spec = FaultSpec(kind="bitflip", level=0.1)
            cell.weight_fault = StackedWeightFault([
                spec.build_weight_model(np.random.default_rng(s))
                for s in range(chips)
            ])
        with contextlib.ExitStack() as stack:
            if chips is not None:
                stack.enter_context(chip_batch(chips))
            free, graph = self._step(cell, x, h, c)
        for a, b in zip(free, graph):
            assert _bits(a) == _bits(b)

    def test_outputs_do_not_alias_the_scratch(self):
        cell = self._cell()
        rng = np.random.default_rng(2)
        x, h, c = rng.normal(size=(5, 2)), rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        with no_grad():
            h1, c1 = cell(Tensor(x), (Tensor(h), Tensor(c)))
            kept = h1.data.copy(), c1.data.copy()
            cell(Tensor(-x), (h1, c1))
        assert _bits(h1.data) == _bits(kept[0])
        assert _bits(c1.data) == _bits(kept[1])
        assert not h1.requires_grad and h1._parents == ()


class TestNormalizeIdentity:
    def _input(self, shape, seed=0):
        x = np.random.default_rng(seed).normal(size=shape) * 3.0 + 1.5
        x[..., 0] = 0.0  # exact zeros and a constant row exercise ±0 paths
        x[0, 0] = 2.0
        return Tensor(x)

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("chip_axis", [False, True])
    def test_instance_mode(self, chip_axis, strided):
        shape = (3, 4, 6, 5, 10) if chip_axis else (4, 6, 5, 10)
        x = self._input(shape)
        x = Tensor(x.data[..., ::2]) if strided else x
        axes = tuple(range(2 if chip_axis else 1, x.ndim))
        free, graph = _both_modes(lambda: normalize(x, axes, 1e-5).data)
        assert _bits(free) == _bits(graph)

    @pytest.mark.parametrize("chip_axis", [False, True])
    def test_group_mode(self, chip_axis):
        # Grouped channels, as InvertedNorm and GroupNorm pass them.
        lead = (3, 4) if chip_axis else (4,)
        x = self._input(lead + (8, 3, 3))
        grouped = x.reshape(*lead, 2, 4, 3, 3)
        axes = tuple(range(len(lead) + 1, grouped.ndim))
        free, graph = _both_modes(lambda: normalize(grouped, axes, 1e-5).data)
        assert _bits(free) == _bits(graph)

    def test_does_not_write_its_input(self):
        x = self._input((4, 6))
        before = x.data.copy()
        with no_grad():
            normalize(x, (1,), 1e-5)
        assert _bits(x.data) == _bits(before)


class TestStableSigmoid:
    SPECIAL = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
        1.0, -1.0, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0, 746.0, -746.0,
        1e308, -1e308,
    ])

    @staticmethod
    def _reference(values):
        e = np.exp(-np.abs(values))
        return np.where(values >= 0, 1.0, e) / (1.0 + e)

    def test_special_values(self):
        with np.errstate(all="ignore"):
            assert _bits(_stable_sigmoid(self.SPECIAL)) == _bits(self._reference(self.SPECIAL))

    def test_random_values_and_out(self):
        values = np.random.default_rng(0).normal(scale=20.0, size=(7, 33))
        out = np.empty_like(values)
        result = _stable_sigmoid(values, out=out)
        assert result is out
        assert _bits(result) == _bits(self._reference(values))

    def test_strided_input_contiguous_out(self):
        gates = np.random.default_rng(1).normal(scale=5.0, size=(6, 16))
        out = np.empty((6, 8))
        assert _bits(_stable_sigmoid(gates[:, :8], out=out)) == _bits(
            self._reference(gates[:, :8])
        )


class TestConcurrentForwards:
    def test_two_threads_match_single_thread(self):
        """Two threads step two equal-weight models at once; a gate buffer
        shared between them would mix their steps."""
        models = [_forecaster("proposed", hidden=16) for _ in range(2)]
        inputs = [_windows(n=48, t=10, seed=s) for s in (3, 4)]
        kinds = ["bitflip", "multiplicative"]
        runs = [_stacked_forward(m, x, k) for m, x, k in zip(models, inputs, kinds)]
        with no_grad():
            expected = [_bits(run()) for run in runs]

        repeats = 6
        barrier = threading.Barrier(2, timeout=60)
        results = [[], []]
        errors = []

        def work(i):
            try:
                barrier.wait()
                with no_grad():
                    for _ in range(repeats):
                        results[i].append(_bits(runs[i]()))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for i in range(2):
            assert results[i] == [expected[i]] * repeats


def _gradfree(model, x, rng_seed=0):
    with no_grad(), scoped_rng(np.random.default_rng(rng_seed)):
        return model(Tensor(x)).data


def _recording(model, x, rng_seed=0):
    """The same forward with the autograd graph recorded."""
    with scoped_rng(np.random.default_rng(rng_seed)):
        return model(Tensor(x, requires_grad=True)).data


def _input_grad(model, x):
    """Gradient of ``model(x).sum()`` with respect to ``x``."""
    t = Tensor(x, requires_grad=True)
    model(t).sum().backward()
    return t.grad


class TestModuleForwards:
    def test_dense_stack(self):
        manual_seed(0)
        model = nn.Sequential(
            nn.Linear(8, 16),
            nn.Tanh(),
            nn.Linear(16, 4),
            nn.Softmax(),
        )
        model.eval()
        x = np.random.default_rng(1).normal(size=(5, 8))
        first = _gradfree(model, x)
        second = _gradfree(model, x)
        np.testing.assert_array_equal(first, _recording(model, x))
        np.testing.assert_array_equal(second, first)

    def test_conv_pool_stack(self):
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
        _gradfree(model, x)
        repeated = _gradfree(model, x)
        np.testing.assert_array_equal(repeated, _recording(model, x))

    def test_fresh_inputs_carry_no_state(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(4, 3), nn.Sigmoid())
        model.eval()
        rng = np.random.default_rng(3)
        x1, x2 = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        _gradfree(model, x1)
        second = _gradfree(model, x2)  # no state carried from x1
        np.testing.assert_array_equal(second, _recording(model, x2))
        assert not np.array_equal(second, _gradfree(model, x1))

    def test_repeated_forwards_recompute(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(6, 8), nn.ReLU(), nn.Linear(8, 4))
        model.eval()
        x = np.random.default_rng(3).normal(size=(5, 6))
        reference = _recording(model, x)
        for _ in range(3):
            np.testing.assert_array_equal(_gradfree(model, x), reference)

    def test_input_changed_in_place_recomputes(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(4, 4), nn.ReLU(), nn.Linear(4, 2))
        model.eval()
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=(3, 4))
        x2 = rng.normal(size=(3, 4))
        ref1 = _recording(model, x1)
        ref2 = _recording(model, x2)
        a = _gradfree(model, x1)
        b = _gradfree(model, x2)  # new content
        c = _gradfree(model, x2)
        buf = x1.copy()
        d = _gradfree(model, buf)
        buf[...] = x2  # same array object, changed in place
        e = _gradfree(model, buf)
        np.testing.assert_array_equal(a, ref1)
        np.testing.assert_array_equal(b, ref2)
        np.testing.assert_array_equal(c, ref2)
        np.testing.assert_array_equal(d, ref1)
        np.testing.assert_array_equal(e, ref2)

    def test_dropout_draws_a_fresh_mask_per_forward(self):
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

    def test_dropout_after_a_deterministic_prefix(self):
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

    def test_views_keep_their_values(self):
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
        out = _gradfree(model, x)
        np.testing.assert_array_equal(out, (x + 1.0).ravel() + (x * 2.0).ravel())
        np.testing.assert_array_equal(out, _recording(model, x))
        np.testing.assert_array_equal(_input_grad(model, x), np.full(x.shape, 3.0))

    def test_outputs_do_not_share_memory(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(4, 4), nn.Tanh())
        model.eval()
        x = np.random.default_rng(0).normal(size=(2, 4))
        first = _gradfree(model, x)
        snapshot = first.copy()
        later = _gradfree(model, x * 3.0)
        np.testing.assert_array_equal(first, snapshot)
        assert not np.shares_memory(first, later)

    def test_where(self):
        class UsesWhere(nn.Module):
            def forward(self, x):
                return ops.where(x.data > 0, x, x * 0.5)

        model = nn.Sequential(UsesWhere())
        model.eval()
        x = np.random.default_rng(0).normal(size=(3, 3))
        first = _gradfree(model, x)
        np.testing.assert_array_equal(first, _gradfree(model, x))
        np.testing.assert_array_equal(first, np.where(x > 0, x, x * 0.5))
        np.testing.assert_array_equal(
            _input_grad(model, x), np.where(x > 0, 1.0, 0.5)
        )

    def test_custom_op(self):
        """A custom ``Tensor._make`` op runs forward and backward."""

        class Odd(nn.Module):
            def forward(self, x):
                data = x.data * 2.0

                def backward(grad):
                    x._accumulate(2.0 * grad)

                return Tensor._make(data, [x], backward, "odd")

        model = nn.Sequential(Odd())
        model.eval()
        x = np.random.default_rng(3).normal(size=(4, 6))
        first = _gradfree(model, x)
        np.testing.assert_array_equal(first, _gradfree(model, x))
        np.testing.assert_array_equal(first, x * 2.0)
        np.testing.assert_array_equal(_input_grad(model, x), np.full(x.shape, 2.0))

    def test_dead_subexpression(self):
        class Deady(nn.Module):
            def forward(self, x):
                unused = x * 3.0
                _chained = unused + 1.0
                return x + 1.0

        model = nn.Sequential(Deady())
        model.eval()
        x = np.arange(6.0).reshape(2, 3)
        out = _gradfree(model, x)
        np.testing.assert_array_equal(out, x + 1.0)
        np.testing.assert_array_equal(out, _recording(model, x))

    def test_dead_branch_changes_no_value_or_gradient(self):
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
        np.testing.assert_array_equal(_gradfree(deady, x), _gradfree(lean, x))
        np.testing.assert_array_equal(_input_grad(deady, x), _input_grad(lean, x))
        np.testing.assert_array_equal(_input_grad(lean, x), np.full(x.shape, 3.0))

    def test_shared_subexpression(self):
        class Twice(nn.Module):
            def forward(self, x):
                s = x.sum(axis=1, keepdims=True)
                a = x - s
                b = x - s  # same subexpression, same operands
                return a + b

        model = nn.Sequential(Twice())
        model.eval()
        x = np.random.default_rng(3).normal(size=(4, 5))
        out = _gradfree(model, x)
        s = x.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(out, (x - s) + (x - s))
        np.testing.assert_array_equal(out, _recording(model, x))
        # d/dx sum(2 (x - rowsum)) = 2 - 2 * n_cols per element
        np.testing.assert_allclose(_input_grad(model, x), np.full(x.shape, -8.0))

    def test_gate_slice(self):
        class GateSlice(nn.Module):
            def forward(self, x):
                wide = x * 2.0
                return ops.tanh(wide[:, :16])

        model = nn.Sequential(GateSlice())
        model.eval()
        x = np.random.default_rng(2).normal(size=(32, 32))
        out = _gradfree(model, x)
        np.testing.assert_array_equal(out, np.tanh((x * 2.0)[:, :16]))
        np.testing.assert_array_equal(out, _recording(model, x))


# Seeded random op programs.  Hand-rolled (no third-party
# property-testing dependency): a seeded :class:`random.Random` generates
# op-DAG programs over the ``Tensor`` surface (elementwise chains, frozen
# constants, shape views, reductions and stochastic draws from the scoped
# generator), and each runs gradient-free, recording (with a backward
# pass that must leave a finite input gradient), then gradient-free
# again.  All three must agree bit for bit (``equal_nan``: a program that
# deterministically makes a NaN must reproduce *that* NaN) and leave the
# identically seeded generator in the same state, so every path draws in
# the same order and number.  A failure shrinks by deleting one
# instruction at a time while it reproduces; operand references resolve
# modulo the live value count, so any deletion leaves a well-formed
# program.  ``REPRO_FUZZ_PROGRAMS`` (default 40) fixes how many seeded
# programs run, so the corpus is stable run to run.

N_PROGRAMS = int(os.environ.get("REPRO_FUZZ_PROGRAMS", "40"))
BASE_SHAPE = (3, 4)
MIN_LEN, MAX_LEN = 3, 14
EVAL_SEED = 1234  # the scoped generator every execution path re-seeds

# Instruction vocabulary.  Each entry is (tag, weight); generation picks
# by weight, execution dispatches on tag.  Unary/binary ops stay in the
# saturating family (no exp/log) so long random chains cannot overflow
# into platform-dependent math.
UNARY = ("neg", "sigmoid", "tanh", "relu", "abs")
BINARY = ("add", "sub", "mul")
CONST = ("addc", "mulc")
VIEW = ("transpose", "reshape", "flatten")
INSTR_WEIGHTS = (
    ("unary", 4),
    ("binary", 4),
    ("const", 2),
    ("view", 2),
    ("reduce", 1),
    ("source", 2),
)


def generate_program(case_seed: int) -> list:
    """One random instruction list; fully determined by ``case_seed``."""
    rng = random.Random(case_seed)
    length = rng.randint(MIN_LEN, MAX_LEN)
    tags = [t for t, w in INSTR_WEIGHTS for _ in range(w)]
    program = []
    for _ in range(length):
        tag = rng.choice(tags)
        if tag == "unary":
            program.append(("unary", rng.choice(UNARY), rng.randrange(64)))
        elif tag == "binary":
            program.append(
                ("binary", rng.choice(BINARY), rng.randrange(64), rng.randrange(64))
            )
        elif tag == "const":
            program.append(
                ("const", rng.choice(CONST), rng.randrange(64), rng.randrange(2**31))
            )
        elif tag == "view":
            program.append(("view", rng.choice(VIEW), rng.randrange(64)))
        elif tag == "reduce":
            program.append(("reduce", rng.randrange(64)))
        else:
            program.append(("source", rng.randrange(64)))
    return program


def _pick(vals, index):
    return vals[index % len(vals)]


def _pick_like(vals, anchor, index):
    """A previous value shaped like ``anchor`` (binary operands must match)."""
    same = [v for v in vals if v.shape == anchor.shape]
    return same[index % len(same)]


def _execute(instr, vals):
    tag = instr[0]
    if tag == "unary":
        _, op, src = instr
        v = _pick(vals, src)
        return {
            "neg": lambda t: -t,
            "sigmoid": ops.sigmoid,
            "tanh": ops.tanh,
            "relu": ops.relu,
            "abs": ops.abs_,
        }[op](v)
    if tag == "binary":
        _, op, a_idx, b_idx = instr
        a = _pick(vals, a_idx)
        b = _pick_like(vals, a, b_idx)
        return {"add": lambda x, y: x + y,
                "sub": lambda x, y: x - y,
                "mul": lambda x, y: x * y}[op](a, b)
    if tag == "const":
        _, op, src, const_seed = instr
        v = _pick(vals, src)
        # Frozen per-instruction constant: identical on every execution
        # path.
        const = Tensor(np.random.default_rng(const_seed).normal(size=v.shape))
        return v + const if op == "addc" else v * const
    if tag == "view":
        _, kind, src = instr
        v = _pick(vals, src)
        if kind == "transpose" and v.ndim >= 2:
            return v.transpose()
        if kind == "reshape" and v.ndim >= 2:
            return v.reshape(v.shape[-1], -1)
        return v.flatten()
    if tag == "reduce":
        _, src = instr
        return _pick(vals, src).sum(axis=0, keepdims=True)
    # source: add a stochastic draw from the scoped generator — every
    # path must make it in the same order.
    _, src = instr
    v = _pick(vals, src)
    return v + Tensor(get_rng().standard_normal(v.shape))


class FuzzProgram(nn.Module):
    """Executes one generated instruction list as a root forward."""

    def __init__(self, program):
        super().__init__()
        self.program = program

    def forward(self, x):
        vals = [x]
        for instr in self.program:
            vals.append(_execute(instr, vals))
        # Anchor on the last value and fold in a mid-program value's sum,
        # leaving everything else dead on most programs.
        anchor = vals[-1]
        extra = vals[(len(vals) // 2) % len(vals)]
        return anchor + extra.sum()


def _input_for(case_seed: int) -> np.ndarray:
    return np.random.default_rng(case_seed ^ 0x5EED).normal(size=BASE_SHAPE)


def _run(module, x, record):
    """One forward under a fresh ``EVAL_SEED`` generator.

    Returns ``(output, generator_state_after, input_grad)``; the gradient
    is ``None`` for gradient-free runs.
    """
    generator = np.random.default_rng(EVAL_SEED)
    with scoped_rng(generator):
        if record:
            inp = Tensor(x.copy(), requires_grad=True)
            out = module(inp)
            out.sum().backward()
            grad = inp.grad
        else:
            with no_grad():
                out = module(Tensor(x.copy()))
            grad = None
    return out.data.copy(), generator.bit_generator.state, grad


def _check_case(program, x):
    """Returns None if the program holds the property, else a reason."""
    module = FuzzProgram(program).eval()
    try:
        gradfree, gradfree_state, _ = _run(module, x, record=False)
        recorded, recorded_state, grad = _run(module, x, record=True)
        repeat, repeat_state, _ = _run(module, x, record=False)
    except Exception as exc:  # crashes shrink just like mismatches
        return f"raised {type(exc).__name__}: {exc}"
    for label, got, state in (
        ("recording", recorded, recorded_state),
        ("repeat", repeat, repeat_state),
    ):
        if not np.array_equal(gradfree, got, equal_nan=True):
            return f"{label} forward diverged from the gradient-free forward"
        if state != gradfree_state:
            return f"{label} forward drew a different number of samples"
    if grad is None or grad.shape != x.shape:
        return "recording forward left no input gradient of the input's shape"
    if np.isfinite(recorded).all() and not np.isfinite(grad).all():
        return "finite forward produced a non-finite input gradient"
    return None


def _shrink(program, check):
    """Greedy one-deletion shrinking: the smallest program ``check``
    still fails (returns a reason for), with that reason."""
    current, reason = list(program), check(program)
    progress = True
    while progress:
        progress = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            if not candidate:
                continue
            candidate_reason = check(candidate)
            if candidate_reason is not None:
                current, reason = candidate, candidate_reason
                progress = True
                break
    return current, reason


class TestForwardFuzz:
    def test_programs_agree_across_forward_modes(self):
        """Gradient-free, recording and repeated forwards agree on every program."""
        failures = []
        for case_seed in range(N_PROGRAMS):
            program = generate_program(case_seed)
            x = _input_for(case_seed)
            reason = _check_case(program, x)
            if reason is None:
                continue
            minimal, minimal_reason = _shrink(
                program, lambda candidate: _check_case(candidate, x)
            )
            failures.append(
                f"case_seed={case_seed}: {reason}\n"
                f"  minimal ({len(minimal)} instrs): {minimal}\n"
                f"  minimal failure: {minimal_reason}"
            )
        assert not failures, (
            f"{len(failures)}/{N_PROGRAMS} fuzz programs violated "
            "forward identity:\n" + "\n".join(failures)
        )

    def test_generator_is_deterministic(self):
        """Same seed, same program — the corpus is stable across runs."""
        for case_seed in (0, 7, N_PROGRAMS - 1):
            assert generate_program(case_seed) == generate_program(case_seed)

    def test_shrinker_reaches_a_minimal_program(self):
        """Shrinking a synthetic failure deletes every deletable instruction.

        The check ("program still contains a mul") stands in for a real
        divergence; greedy deletion must strip everything else and keep
        exactly the one instruction the check needs.
        """
        program = generate_program(3)
        program.append(("binary", "mul", 0, 0))

        def check(candidate):
            has_mul = any(i[0] == "binary" and i[1] == "mul" for i in candidate)
            return "has a mul" if has_mul else None

        minimal, reason = _shrink(program, check)
        assert len(minimal) == 1 and minimal[0][1] == "mul"
        assert reason == "has a mul"
