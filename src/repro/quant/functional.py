"""Quantization primitives with straight-through-estimator gradients.

The paper deploys networks at three precisions (Table I): binarized weights
and activations for ResNet-18 (IR-Net-style [18]), 8-bit weights/activations
for M5 and the LSTM, and binary weights with PACT-quantized [19] 4-bit
activations for U-Net.  This module provides the functional building blocks;
the layer wrappers live in :mod:`repro.quant.layers`.

Every function exposes the integer *codes* actually stored in NVM cells via
the :class:`QuantizedWeight` record so fault models
(:mod:`repro.faults`) can flip the very bits a crossbar would hold.

A fault hook may be *stacked* (one frozen pattern per stacked cell, see
:class:`repro.faults.models.StackedWeightFault`): it then returns
perturbed codes with a leading instance axis, and the dequantized result
is a ``(n_instances, *weight.shape)`` stack — scales broadcast against it
unchanged, and the layer forwards contract it with batched matmuls.  That
path is inference-only; campaigns never backpropagate through faulty
chips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..tensor import Tensor

#: Transform applied to quantized weight codes at forward time.  Receives a
#: :class:`QuantizedWeight` and returns the perturbed integer codes.
WeightFault = Callable[["QuantizedWeight"], np.ndarray]

#: Transform applied to a float activation array at forward time (additive /
#: multiplicative conductance-variation injection site for binary nets).
ActivationFault = Callable[[np.ndarray], np.ndarray]


@dataclass
class QuantizedWeight:
    """Snapshot of a layer's weight as stored in NVM cells.

    Attributes
    ----------
    codes:
        Integer codes; for ``bits == 1`` the codes are in ``{-1, +1}``, for
        ``bits >= 2`` they are signed integers in
        ``[-(2**(bits-1) - 1), 2**(bits-1) - 1]``.  Held as float64, except
        in the cached 1-bit record of a deployed layer, which holds
        ``int8`` (the dequantized weight has the same bits).
    scale:
        Dequantization scale (broadcastable to ``codes``); the effective
        weight is ``codes * scale``.
    bits:
        Bit width per weight.

    A deployed layer keeps its clean record until its weights change or
    its cache is invalidated, which every campaign compute job does to
    its model as it ends; ``last_quantized`` refers to the record too and
    is cleared with it (see :mod:`repro.quant.layers`).
    """

    codes: np.ndarray
    scale: np.ndarray
    bits: int

    @property
    def qmax(self) -> int:
        return 1 if self.bits == 1 else 2 ** (self.bits - 1) - 1

    def dequantize(self) -> np.ndarray:
        return self.codes * self.scale


def sign_with_zero_to_one(x: np.ndarray) -> np.ndarray:
    """``sign`` mapping 0 to +1, as binarized hardware does.

    Adding the zero mask maps ±0 to 1 and leaves ±1 and NaN alone: the
    bits of masked assignment without its boolean scatter.
    """
    s = np.sign(x)
    return np.add(s, s == 0, out=s)


def binarize_weight_record(
    data: np.ndarray, codes_dtype: type = np.float64
) -> QuantizedWeight:
    """Pure-numpy IR-Net binarization snapshot: ``sign(w)`` codes + alpha.

    ``alpha = mean(|w|)`` over each output filter.  This is the
    deployment-frozen part of :func:`binarize_weight` — for weights that do
    not change between forwards (an inference campaign) the record can be
    computed once and cached (see
    :class:`repro.quant.layers.QuantizedComputeLayer`), with ``int8``
    codes: ``codes * alpha`` has the same bits either way.
    """
    data = np.asarray(data)
    axes = tuple(range(1, data.ndim))
    alpha = (
        np.abs(data).mean(axis=axes, keepdims=True)
        if axes
        else np.abs(data).mean(keepdims=True)
    )
    codes = sign_with_zero_to_one(data).astype(codes_dtype, copy=False)
    return QuantizedWeight(codes=codes, scale=alpha, bits=1)


def binarize_weight(
    weight: Tensor,
    fault: Optional[WeightFault] = None,
    record: Optional[QuantizedWeight] = None,
) -> Tuple[Tensor, QuantizedWeight]:
    """IR-Net-style weight binarization with per-output-channel scaling.

    ``w_b = sign(w) * alpha`` with ``alpha = mean(|w|)`` over each output
    filter.  The backward pass is a clipped straight-through estimator:
    gradients pass (scaled by ``alpha``) where ``|w| <= 1``.

    ``record`` may carry a precomputed (cached) snapshot of the *current*
    weight values; passing a stale record is undefined behaviour.
    """
    if record is None:
        record = binarize_weight_record(weight.data)
    alpha = record.scale
    codes = record.codes
    if fault is not None:
        codes = fault(record)
    data = codes * alpha
    mask = np.abs(weight.data) <= 1.0

    def backward(grad: np.ndarray) -> None:
        weight._accumulate(grad * mask * alpha)

    return Tensor._make(data, [weight], backward, "binarize_w"), record


def binarize_activation(
    x: Tensor, pre_fault: Optional[ActivationFault] = None
) -> Tensor:
    """Sign activation with hard-tanh straight-through gradient.

    ``pre_fault`` is the conductance-variation injection site the paper uses
    for binary NNs: noise is added to the *normalized activations before the
    Sign(.)* (Section IV-A-2).  The fault perturbs the forward decision but
    the gradient estimator still uses the clean input's clip mask.
    """
    values = x.data if pre_fault is None else pre_fault(x.data)
    data = sign_with_zero_to_one(values)
    mask = np.abs(x.data) <= 1.0

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(data, [x], backward, "binarize_a")


def fake_quantize_weight_record(data: np.ndarray, bits: int) -> QuantizedWeight:
    """Pure-numpy symmetric k-bit quantization snapshot (codes + scale).

    The deployment-frozen part of :func:`fake_quantize_weight`, cacheable
    for weights that stay fixed across inference forwards.
    """
    if bits < 2:
        raise ValueError("use binarize_weight for 1-bit weights")
    data = np.asarray(data)
    qmax = 2 ** (bits - 1) - 1
    max_abs = np.abs(data).max()
    scale = np.asarray(max_abs / qmax if max_abs > 0 else 1.0)
    codes = np.clip(np.round(data / scale), -qmax, qmax)
    return QuantizedWeight(codes=codes, scale=scale, bits=bits)


def fake_quantize_weight(
    weight: Tensor,
    bits: int,
    fault: Optional[WeightFault] = None,
    record: Optional[QuantizedWeight] = None,
) -> Tuple[Tensor, QuantizedWeight]:
    """Symmetric per-tensor k-bit fake quantization with STE gradient.

    The scale maps ``max(|w|)`` to the largest code, matching how weights
    are programmed into multi-level NVM cells before deployment.

    ``record`` may carry a precomputed (cached) snapshot of the *current*
    weight values; passing a stale record is undefined behaviour.
    """
    if record is None:
        record = fake_quantize_weight_record(weight.data, bits)
    scale = record.scale
    codes = record.codes
    if fault is not None:
        codes = fault(record)
    data = codes * scale

    def backward(grad: np.ndarray) -> None:
        weight._accumulate(grad)  # STE: identity inside the clip range

    return Tensor._make(data, [weight], backward, "fake_quant_w"), record


def fake_quantize_activation(x: Tensor, bits: int, max_val: float = 1.0) -> Tensor:
    """Unsigned k-bit activation quantization on ``[0, max_val]`` (STE)."""
    levels = 2**bits - 1
    clipped = np.clip(x.data, 0.0, max_val)
    data = np.round(clipped / max_val * levels) / levels * max_val
    mask = (x.data >= 0.0) & (x.data <= max_val)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(data, [x], backward, "fake_quant_a")


def pact_quantize(x: Tensor, alpha: Tensor, bits: int) -> Tensor:
    """PACT activation quantization [19] with a learnable clipping level.

    ``y = round(clip(x, 0, alpha) / alpha * L) / L * alpha`` with
    ``L = 2**bits - 1``.  Gradient w.r.t. ``x`` is the STE pass-through
    inside ``[0, alpha]``; gradient w.r.t. ``alpha`` is 1 where ``x`` is
    clipped high (the PACT paper's estimator).
    """
    levels = 2**bits - 1
    a = float(alpha.data.item())
    if a <= 0:
        raise ValueError(f"PACT alpha must be positive, got {a}")

    clipped = np.clip(x.data, 0.0, a)
    data = np.round(clipped / a * levels) / levels * a
    inside = (x.data >= 0.0) & (x.data < a)
    above = x.data >= a

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * inside)
        alpha._accumulate(np.asarray((grad * above).sum()).reshape(alpha.shape))

    return Tensor._make(data, [x, alpha], backward, "pact")
