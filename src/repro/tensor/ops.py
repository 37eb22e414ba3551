"""Differentiable elementwise and structural operations on :class:`Tensor`.

All functions accept and return :class:`~repro.tensor.tensor.Tensor` objects
and record autograd history when gradient mode is enabled.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, as_tensor, unbroadcast


def exp(x: Tensor) -> Tensor:
    """Differentiable elementwise exponential."""
    x = as_tensor(x)
    data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * data)

    return Tensor._make(data, [x], backward, "exp")


def log(x: Tensor) -> Tensor:
    """Differentiable elementwise natural logarithm."""
    x = as_tensor(x)
    data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad / x.data)

    return Tensor._make(data, [x], backward, "log")


def sqrt(x: Tensor) -> Tensor:
    """Differentiable elementwise square root."""
    x = as_tensor(x)
    data = np.sqrt(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * 0.5 / data)

    return Tensor._make(data, [x], backward, "sqrt")


def abs_(x: Tensor) -> Tensor:
    """Differentiable elementwise absolute value (subgradient 0 at 0)."""
    x = as_tensor(x)
    data = np.abs(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.sign(x.data))

    return Tensor._make(data, [x], backward, "abs")


def tanh(x: Tensor) -> Tensor:
    """Differentiable elementwise hyperbolic tangent."""
    x = as_tensor(x)
    data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - data**2))

    return Tensor._make(data, [x], backward, "tanh")


def _stable_sigmoid(
    values: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Numerically stable logistic of a plain array.

    Branch-free formulation of the classic two-tail-stable logistic: with
    ``e = exp(-|x|)`` the positive tail is ``1 / (1 + e)`` and the
    negative tail ``e / (1 + e)`` — elementwise identical (bit for bit,
    including ±0, ±inf and the overflow range) to masked assignment, but
    without the boolean gather/scatter that dominated its runtime.

    ``e`` is computed in place through one scratch array (abs, negate,
    exp, then reused for the denominator and the result) — the same ufunc
    sequence as the naive spelling, minus four full-size temporaries per
    call.  The numerator ``max(e, x >= 0)`` is ``1`` on the positive tail
    (``e <= 1``) and ``e`` elsewhere, NaN included: the same bits as
    ``where(x >= 0, 1, e)`` at a fraction of its cost.  ``out`` (any
    array of ``values``' shape, not overlapping it) receives ``e`` and
    the result.
    """
    positive = values >= 0
    e = np.abs(values, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, positive)
    np.add(e, 1.0, out=e)
    return np.divide(num, e, out=e)


def sigmoid(x: Tensor) -> Tensor:
    """Differentiable logistic function, numerically stable in both tails."""
    x = as_tensor(x)
    data = _stable_sigmoid(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * data * (1.0 - data))

    return Tensor._make(data, [x], backward, "sigmoid")


def relu(x: Tensor) -> Tensor:
    """Differentiable rectified linear unit ``max(x, 0)``."""
    x = as_tensor(x)
    mask = x.data > 0
    data = np.where(mask, x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(data, [x], backward, "relu")


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Differentiable leaky ReLU with slope ``negative_slope`` for ``x < 0``."""
    x = as_tensor(x)
    mask = x.data > 0
    data = np.where(mask, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.where(mask, 1.0, negative_slope))

    return Tensor._make(data, [x], backward, "leaky_relu")


def hardtanh(x: Tensor, min_val: float = -1.0, max_val: float = 1.0) -> Tensor:
    """Clamp with pass-through gradient inside the interval."""
    x = as_tensor(x)
    data = np.clip(x.data, min_val, max_val)
    mask = (x.data > min_val) & (x.data < max_val)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(data, [x], backward, "hardtanh")


def clip(x: Tensor, min_val: Optional[float], max_val: Optional[float]) -> Tensor:
    """Differentiable clamp to ``[min_val, max_val]`` (zero gradient outside)."""
    x = as_tensor(x)
    lo = -np.inf if min_val is None else min_val
    hi = np.inf if max_val is None else max_val
    data = np.clip(x.data, lo, hi)
    mask = (x.data >= lo) & (x.data <= hi)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(data, [x], backward, "clip")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise maximum (gradient follows the winner)."""
    a, b = as_tensor(a), as_tensor(b)
    data = np.maximum(a.data, b.data)
    a_wins = a.data >= b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(unbroadcast(grad * a_wins, a.shape))
        b._accumulate(unbroadcast(grad * ~a_wins, b.shape))

    return Tensor._make(data, [a, b], backward, "maximum")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select; ``condition`` is a plain boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(unbroadcast(grad * cond, a.shape))
        b._accumulate(unbroadcast(grad * ~cond, b.shape))

    return Tensor._make(data, [a, b], backward, "where")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Differentiable softmax along ``axis``, shift-stabilized."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * data).sum(axis=axis, keepdims=True)
        x._accumulate(data * (grad - dot))

    return Tensor._make(data, [x], backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Differentiable log-softmax along ``axis``, shift-stabilized."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_z
    soft = np.exp(data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(data, [x], backward, "log_softmax")


def pad(x: Tensor, pad_width: Sequence[Tuple[int, int]]) -> Tensor:
    """Zero-pad; ``pad_width`` follows ``np.pad`` convention per axis."""
    x = as_tensor(x)
    pad_width = tuple(tuple(p) for p in pad_width)
    data = np.pad(x.data, pad_width)

    def backward(grad: np.ndarray) -> None:
        slicer = tuple(
            slice(before, dim - after)
            for (before, after), dim in zip(pad_width, grad.shape)
        )
        x._accumulate(grad[slicer])

    return Tensor._make(data, [x], backward, "pad")


def dropout_mask_apply(x: Tensor, mask: np.ndarray, scale: float = 1.0) -> Tensor:
    """Multiply by a fixed (non-differentiable) mask, optionally rescaling."""
    x = as_tensor(x)
    factor = mask * scale
    data = x.data * factor

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * factor)

    return Tensor._make(data, [x], backward, "dropout")


def add_noise(x: Tensor, noise: np.ndarray) -> Tensor:
    """Add a constant (non-differentiable) noise array."""
    x = as_tensor(x)
    data = x.data + noise

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad)

    return Tensor._make(data, [x], backward, "add_noise")
