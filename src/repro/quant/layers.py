"""Quantized layer wrappers: the IMC-mapped compute layers.

These layers model the part of the network whose weights physically live in
NVM crossbar cells.  Each exposes two fault-injection hooks used by
:mod:`repro.faults`:

* ``weight_fault`` — applied to the quantized integer weight codes at
  forward time (bit flips, stuck-at faults, conductance variation on
  multi-bit weights);
* ``last_quantized`` — the most recent :class:`~repro.quant.functional.QuantizedWeight`
  record, letting campaigns and the IMC simulator inspect what would be
  programmed into the array.

Binary activation faults are injected through
:class:`SignActivation.pre_fault` (noise on normalized activations before
the sign, per Section IV-A-2 of the paper).

Deployment-frozen quantization cache
------------------------------------
Physically, weights are quantized **once** — when the chip is programmed —
not on every inference.  The layers model that: during gradient-free
forwards (campaign evaluation, Bayesian sampling) each layer caches

* its clean :class:`~repro.quant.functional.QuantizedWeight` record, keyed
  by the parameter's ``(uid, version)`` counter
  (:meth:`repro.nn.module.Parameter.mark_updated`), and
* the faulty dequantized weight produced by the attached fault hook, keyed
  additionally by the hook's unique ``fault_token`` and the active
  instance-axis layout,

so campaign forwards — every MC sample, every evaluation batch, every LSTM
timestep — reuse the programmed codes, and fault hooks perturb the cached
record instead of re-deriving it per pass.  Training invalidates
transparently: gradient-recording forwards always requantize (the STE
backward needs the live weight), and optimizer steps bump the version
counter so the next deployed forward reprograms.  Hooks without a
``fault_token`` (ad-hoc callables) are never value-cached and keep the
legacy applied-every-forward semantics.

A cached 1-bit record stores its ±1 codes as ``int8``: ``codes * alpha``
has the bits of float64 codes, and a bit flip's ``np.where`` moves an
eighth of the bytes.  Gradient-recording records and multi-bit codes stay
float64.

What a layer holds, and for how long:

* the clean record of each slot lives until the weight's version changes
  or :meth:`~QuantizedComputeLayer.invalidate_quant_cache` drops it;
* a faulty deploy entry lives while its hook is attached:
  :meth:`~QuantizedComputeLayer.detach_faults` drops it, because fault
  tokens are never reissued and it could never hit again.  The clean
  entry stays;
* a campaign compute job (:func:`repro.eval.campaigns.compute_pending`)
  invalidates every layer of its model when it ends, so a worker keeps
  no programmed codes of the networks it has computed, only their
  parameters.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..tensor import Tensor, ops
from ..tensor import conv as F
from ..tensor.chipbatch import active_chip_count, active_sample_count
from ..tensor.grad_mode import is_grad_enabled
from ..nn import init
from ..nn.module import Module, Parameter
from .functional import (
    ActivationFault,
    QuantizedWeight,
    WeightFault,
    binarize_activation,
    binarize_weight,
    binarize_weight_record,
    fake_quantize_weight,
    fake_quantize_weight_record,
)

#: Token used for the fault-free ("clean chip") cache entry.
_CLEAN = "clean"

# Global switch for the deployment cache — disabled, every gradient-free
# forward requantizes like the pre-cache engine.  Used by identity tests
# and benchmarks to compare cached against recomputed codes.
_DEPLOY_CACHE_ENABLED = True


@contextlib.contextmanager
def deploy_cache_disabled():
    """Force requantization on every forward for the duration of the block."""
    global _DEPLOY_CACHE_ENABLED
    previous = _DEPLOY_CACHE_ENABLED
    _DEPLOY_CACHE_ENABLED = False
    try:
        yield
    finally:
        _DEPLOY_CACHE_ENABLED = previous


class QuantizedComputeLayer(Module):
    """Base class for layers whose weights are programmed into NVM cells."""

    def __init__(self, weight_bits: int):
        super().__init__()
        self.weight_bits = int(weight_bits)
        self.weight_fault: Optional[WeightFault] = None
        self.last_quantized: Optional[QuantizedWeight] = None
        # Deployment-frozen caches (see module docstring).  One entry per
        # weight slot: the programmed record, and the last faulty
        # dequantized weight for the currently attached hook.
        self._record_cache: Dict[str, Tuple[Tuple[int, int], QuantizedWeight]] = {}
        self._deploy_cache: Dict[str, Tuple[tuple, np.ndarray, QuantizedWeight]] = {}

    def invalidate_quant_cache(self) -> None:
        """Drop all deployment-frozen state (force requantization) and
        the records the last forward left behind."""
        self._record_cache.clear()
        self._deploy_cache.clear()
        self.last_quantized = None

    def detach_faults(self) -> None:
        """Remove the weight-fault hooks and every faulty deploy entry.

        An entry is keyed on its hook's ``fault_token``, and tokens are
        never reissued, so once the hook is gone the entry could never
        hit again.  The clean entry stays.
        """
        self.weight_fault = None
        for slot in [slot for slot, (key, _, _) in self._deploy_cache.items()
                     if key[1] != _CLEAN]:
            del self._deploy_cache[slot]

    def weight_slots(self) -> Tuple[Tuple[str, Parameter], ...]:
        """The (slot, parameter) pairs this layer quantizes at forward time.

        Subclasses with several independently-programmed weight tensors
        (e.g. :class:`QuantLSTMCell`) override this; deployment helpers
        (:func:`repro.quant.deploy.warm_quantization`) iterate it.
        """
        return (("weight", self.weight),)

    def _frozen_record(
        self, weight: Tensor, slot: str
    ) -> Optional[QuantizedWeight]:
        """Cached quantization record for ``weight``, or ``None`` if
        caching is unavailable (cache disabled, gradients recording, or an
        unversioned weight tensor)."""
        if not _DEPLOY_CACHE_ENABLED or is_grad_enabled():
            return None
        key = getattr(weight, "version_key", None)
        if key is None:
            return None
        hit = self._record_cache.get(slot)
        if hit is None or hit[0] != key:
            record = (
                binarize_weight_record(weight.data, codes_dtype=np.int8)
                if self.weight_bits == 1
                else fake_quantize_weight_record(weight.data, self.weight_bits)
            )
            self._record_cache[slot] = (key, record)
            return record
        return hit[1]

    def _quantize_slot(
        self,
        weight: Tensor,
        fault: Optional[WeightFault],
        slot: str,
        record_attr: str,
    ) -> Tensor:
        """Quantize (or binarize) one weight slot, applying fault hooks.

        A chip-batched fault hook (one frozen pattern per simulated chip,
        repeated along any MC-sample sub-axis) returns perturbed codes with
        a leading instance axis, so the result is a
        ``(n_instances, *weight.shape)`` stack of per-instance faulty
        weights; the forward methods below broadcast against it
        transparently.  Gradient-free forwards are served from the
        deployment cache when possible.
        """
        # record is non-None only when caching is available (cache enabled,
        # gradients off, versioned weight) — deploy_key inherits that gate.
        record = self._frozen_record(weight, slot)
        deploy_key = None
        if record is not None:
            token = _CLEAN if fault is None else getattr(fault, "fault_token", None)
            if token is not None:
                deploy_key = (
                    self._record_cache[slot][0],
                    token,
                    active_chip_count(),
                    active_sample_count(),
                )
                hit = self._deploy_cache.get(slot)
                if hit is not None and hit[0] == deploy_key:
                    setattr(self, record_attr, hit[2])
                    return Tensor(hit[1])
        if self.weight_bits == 1:
            q, record = binarize_weight(weight, fault=fault, record=record)
        else:
            q, record = fake_quantize_weight(
                weight, self.weight_bits, fault=fault, record=record
            )
        setattr(self, record_attr, record)
        if deploy_key is not None:
            self._deploy_cache[slot] = (deploy_key, q.data, record)
        return q

    def _quantize(self, weight: Tensor) -> Tensor:
        """Quantize the primary weight slot with ``weight_fault`` applied."""
        return self._quantize_slot(
            weight, self.weight_fault, "weight", "last_quantized"
        )


class QuantConv2d(QuantizedComputeLayer):
    """Conv2d whose weights are quantized (or binarized) at forward time.

    Training forwards requantize the live weight (STE gradients); deployed
    gradient-free forwards reuse the cached programmed codes until the
    weight's version counter changes.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple,
        stride: int | tuple = 1,
        padding: int | tuple = 0,
        bias: bool = False,
        weight_bits: int = 1,
    ):
        super().__init__(weight_bits)
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(np.empty((out_channels, in_channels, kh, kw)))
        init.kaiming_normal_(self.weight)
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        wq = self._quantize(self.weight)
        return F.conv2d(x, wq, self.bias, stride=self.stride, padding=self.padding)

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, weight_bits={self.weight_bits}"
        )


class QuantConv1d(QuantizedComputeLayer):
    """Conv1d with quantized weights (M5 audio model, 8-bit).

    Shares the deployment-frozen quantization cache of
    :class:`QuantizedComputeLayer`.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        weight_bits: int = 8,
    ):
        super().__init__(weight_bits)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = int(kernel_size)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(np.empty((out_channels, in_channels, kernel_size)))
        init.kaiming_normal_(self.weight)
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        wq = self._quantize(self.weight)
        return F.conv1d(x, wq, self.bias, stride=self.stride, padding=self.padding)

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"weight_bits={self.weight_bits}"
        )


class QuantLinear(QuantizedComputeLayer):
    """Linear layer with quantized weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        weight_bits: int = 8,
    ):
        super().__init__(weight_bits)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((out_features, in_features)))
        init.kaiming_uniform_(self.weight, gain=1.0)
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        wq = self._quantize(self.weight)
        # swapaxes (not .T) so chip-batched (n_chips, out, in) weights
        # contract correctly; identical to .T for the 2-D serial case.
        out = x @ wq.swapaxes(-1, -2)
        if self.bias is not None:
            out = out + self.bias
        return out

    def extra_repr(self) -> str:
        return (
            f"in_features={self.in_features}, out_features={self.out_features}, "
            f"weight_bits={self.weight_bits}"
        )


class _StepScratch(threading.local):
    """Two gate-sized buffers for gradient-free LSTM steps, per thread.

    Models may be stepped from more than one thread (the campaign
    service runs each sweep on its connection's thread), so the buffers
    belong to the thread running the step, never to the process or to a
    module.  They are replaced only when the gate shape changes.
    """

    def __init__(self) -> None:
        self.gates = np.empty(0)
        self.work = np.empty(0)

    def buffers(self, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        if self.gates.shape != shape:
            self.gates = np.empty(shape)
            self.work = np.empty(shape)
        return self.gates, self.work


_SCRATCH = _StepScratch()


@functools.lru_cache(maxsize=64)
def _step_layout(x_shape, w_ih_shape, h_shape, w_hh_shape):
    """Gate shape of one LSTM step, and whether each of its two matrix
    products has that shape (an unstacked operand beside a stacked one
    only broadcasts to it)."""
    x_out = np.broadcast_shapes(x_shape[:-2], w_ih_shape[:-2]) + (
        x_shape[-2], w_ih_shape[-2],
    )
    h_out = np.broadcast_shapes(h_shape[:-2], w_hh_shape[:-2]) + (
        h_shape[-2], w_hh_shape[-2],
    )
    shape = np.broadcast_shapes(x_out, h_out)
    return shape, x_out == shape, h_out == shape


def _lstm_step(x, h, c, w_ih, w_hh, b_ih, b_hh):
    """One LSTM step on plain arrays; returns fresh ``(h', c')``.

    The same operations in the same order as the graph path of
    :meth:`QuantLSTMCell.forward`, so the same bits:
    ``((x @ W_ihᵀ + b_ih) + h @ W_hhᵀ) + b_hh`` accumulated in a reused
    gate buffer, the logistic over ``[i|f]`` in one call, then
    ``c' = f * c + i * g`` and ``h' = o * tanh(c')``.  ``exp`` and
    ``tanh`` write contiguous arrays, as in the graph path, so both paths
    run the same (contiguous) numpy loops for them.
    """
    shape, x_fills, h_fills = _step_layout(x.shape, w_ih.shape, h.shape, w_hh.shape)
    gates, work = _SCRATCH.buffers(shape)
    # With one input feature the product is a multiply.  A matmul's sums
    # start from +0.0, so it never returns the -0.0 a multiply can; with
    # ``b_ih + 0.0``, never -0.0 either, every gate sum has the bits of
    # the graph path's ``x @ W_ihᵀ + b_ih``.
    product = np.multiply if x.shape[-1] == 1 else np.matmul
    x_proj = product(x, w_ih.swapaxes(-1, -2), out=gates if x_fills else None)
    np.add(x_proj, b_ih + 0.0, out=gates)
    h_proj = np.matmul(h, w_hh.swapaxes(-1, -2), out=work if h_fills else None)
    np.add(gates, h_proj, out=gates)
    np.add(gates, b_hh, out=gates)
    # ``work`` is free again: split it into contiguous activation outputs.
    hs = shape[-1] // 4
    lead = shape[:-1]
    flat = work.reshape(-1)
    quarter = flat.size // 4
    i_f = ops._stable_sigmoid(
        gates[..., : 2 * hs], out=flat[: 2 * quarter].reshape(lead + (2 * hs,))
    )
    g = np.tanh(
        gates[..., 2 * hs : 3 * hs],
        out=flat[2 * quarter : 3 * quarter].reshape(lead + (hs,)),
    )
    o = ops._stable_sigmoid(
        gates[..., 3 * hs :], out=flat[3 * quarter :].reshape(lead + (hs,))
    )
    c_new = np.multiply(i_f[..., hs:], c)
    np.add(c_new, np.multiply(i_f[..., :hs], g, out=g), out=c_new)
    return np.multiply(o, np.tanh(c_new, out=g)), c_new


class QuantLSTMCell(QuantizedComputeLayer):
    """LSTM cell whose input/hidden weight matrices are quantized.

    Used by the 8-bit LSTM forecaster; the two gate matrices are quantized
    independently (they occupy separate crossbar tiles).  The deployment
    cache matters most here: a sequence of ``T`` timesteps makes ``2T``
    quantization calls per forward, all served from the two cached slots
    once the chip is programmed.  Without gradients (every campaign cell)
    the step runs on plain arrays (:func:`_lstm_step`), with the graph
    path's bits.
    """

    def __init__(self, input_size: int, hidden_size: int, weight_bits: int = 8):
        super().__init__(weight_bits)
        import math

        from ..tensor.random import get_rng

        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / math.sqrt(hidden_size)
        rng = get_rng()
        self.weight_ih = Parameter(
            rng.uniform(-bound, bound, size=(4 * hidden_size, input_size))
        )
        self.weight_hh = Parameter(
            rng.uniform(-bound, bound, size=(4 * hidden_size, hidden_size))
        )
        self.bias_ih = Parameter(np.zeros(4 * hidden_size))
        self.bias_hh = Parameter(np.zeros(4 * hidden_size))
        self.bias_ih.data[hidden_size : 2 * hidden_size] = 1.0
        # Independent fault hook for the recurrent matrix: the two gate
        # matrices occupy separate crossbar tiles, so fault campaigns attach
        # a dedicated (independently frozen) fault model to each.
        self.weight_fault_hh: Optional[WeightFault] = None
        self.last_quantized_hh: Optional[QuantizedWeight] = None

    def weight_slots(self) -> Tuple[Tuple[str, Parameter], ...]:
        return (("weight_ih", self.weight_ih), ("weight_hh", self.weight_hh))

    def invalidate_quant_cache(self) -> None:
        super().invalidate_quant_cache()
        self.last_quantized_hh = None

    def detach_faults(self) -> None:
        self.weight_fault_hh = None
        super().detach_faults()

    def forward(self, x: Tensor, state):
        h, c = state
        w_ih = self._quantize_slot(
            self.weight_ih, self.weight_fault, "weight_ih", "last_quantized"
        )
        w_hh = self._quantize_slot(
            self.weight_hh, self.weight_fault_hh, "weight_hh", "last_quantized_hh"
        )
        if not is_grad_enabled():
            h_new, c_new = _lstm_step(
                x.data, h.data, c.data, w_ih.data, w_hh.data,
                self.bias_ih.data, self.bias_hh.data,
            )
            return Tensor(h_new), Tensor(c_new)
        gates = (
            x @ w_ih.swapaxes(-1, -2)
            + self.bias_ih
            + h @ w_hh.swapaxes(-1, -2)
            + self.bias_hh
        )
        hs = self.hidden_size
        i = ops.sigmoid(gates[..., 0 * hs : 1 * hs])
        f = ops.sigmoid(gates[..., 1 * hs : 2 * hs])
        g = ops.tanh(gates[..., 2 * hs : 3 * hs])
        o = ops.sigmoid(gates[..., 3 * hs : 4 * hs])
        c_new = f * c + i * g
        h_new = o * ops.tanh(c_new)
        return h_new, c_new

    def extra_repr(self) -> str:
        return (
            f"input_size={self.input_size}, hidden_size={self.hidden_size}, "
            f"weight_bits={self.weight_bits}"
        )


class SignActivation(Module):
    """Binary (sign) activation with straight-through gradient.

    ``pre_fault`` injects additive/multiplicative conductance variation on
    the normalized pre-activation — the paper's injection site for binary
    networks.
    """

    def __init__(self) -> None:
        super().__init__()
        self.pre_fault: Optional[ActivationFault] = None

    def forward(self, x: Tensor) -> Tensor:
        return binarize_activation(x, pre_fault=self.pre_fault)


class PACT(Module):
    """PACT [19] activation: learnable clip + k-bit quantization."""

    def __init__(self, bits: int = 4, alpha_init: float = 6.0):
        super().__init__()
        self.bits = int(bits)
        self.alpha = Parameter(np.array([alpha_init]))

    def forward(self, x: Tensor) -> Tensor:
        from .functional import pact_quantize

        return pact_quantize(x, self.alpha, self.bits)

    def extra_repr(self) -> str:
        return f"bits={self.bits}"


class QuantReLU(Module):
    """ReLU followed by unsigned k-bit activation quantization.

    The activation path of the 8/8-bit models (M5, LSTM head): ReLU output
    is uniformly quantized on ``[0, max_val]`` with a straight-through
    gradient, modelling the ADC/requantization step after the crossbar.
    """

    def __init__(self, bits: int = 8, max_val: float = 4.0):
        super().__init__()
        self.bits = int(bits)
        self.max_val = float(max_val)

    def forward(self, x: Tensor) -> Tensor:
        from .functional import fake_quantize_activation

        return fake_quantize_activation(x, self.bits, max_val=self.max_val)

    def extra_repr(self) -> str:
        return f"bits={self.bits}, max_val={self.max_val}"
