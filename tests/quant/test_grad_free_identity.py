"""Gradient-free forwards give the graph path's bits.

With gradients off, :meth:`QuantLSTMCell.forward` runs its step on plain
arrays in reused gate buffers, and :func:`repro.nn.normalization.normalize`
computes its mean and centred values once.  The oracle is the graph path
itself: the same forward under :func:`enable_grad` must give the same
bits as under :func:`no_grad`, for every method, unstacked and stacked,
with fault hooks attached, and on threads running at once.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest

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
    scoped_rng,
)
from repro.tensor.chipbatch import ChipBatchRng
from repro.tensor.ops import _stable_sigmoid

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
