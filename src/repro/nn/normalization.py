"""Conventional normalization layers (Section II-B of the paper).

These are the layers the proposed inverted normalization replaces.  They all
follow the conventional order: normalize first, then apply the learnable
affine transformation ``y_hat * gamma + beta``.

Shapes follow the computer-vision convention ``(N, C, H, W)`` (or ``(N, C,
L)`` for 1-D): BatchNorm normalizes over ``(N, H, W)`` per channel with
running statistics; LayerNorm over ``(C, H, W)`` per instance; InstanceNorm
over ``(H, W)`` per instance and channel; GroupNorm over channel groups per
instance.

Under an active chip batch (:func:`repro.tensor.chipbatch.chip_batch`, the
campaign engine's stacked passes) every activation carries a leading
chip axis, so the channel axis shifts from 1 to 2 and per-instance
statistics are computed per (chip, instance).  Statistics never mix across
chips — each chip's slice normalizes exactly as it would serially.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor import Tensor, ops
from ..tensor.chipbatch import chip_axes
from ..tensor.grad_mode import is_grad_enabled
from .module import Module, Parameter


def normalize(x: Tensor, axes: Tuple[int, ...], eps: float) -> Tensor:
    """``(x - mean) / sqrt(var + eps)`` over ``axes`` (differentiable).

    Without gradients the same operations run once each on plain arrays:
    the graph path computes the mean twice and ``x - mean`` three times
    (its own, plus the two inside :meth:`Tensor.var`), all equal.
    """
    if not is_grad_enabled():
        data = x.data
        scale = 1.0 / int(np.prod([data.shape[a] for a in axes]))
        mu = data.sum(axis=axes, keepdims=True)
        mu *= scale
        centered = data - mu
        var = np.multiply(centered, centered).sum(axis=axes, keepdims=True)
        var *= scale
        var += eps
        return Tensor(np.divide(centered, np.sqrt(var, out=var), out=centered))
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    return (x - mu) / ops.sqrt(var + eps)


def _affine_shape(ndim: int, channels: int) -> Tuple[int, ...]:
    """Broadcastable per-channel parameter shape for an ndim input."""
    shape = [1] * ndim
    shape[chip_axes(1)] = channels
    return tuple(shape)


class _AffineNormBase(Module):
    """Shared affine-parameter handling for conventional norm layers."""

    def __init__(self, num_features: int, eps: float, affine: bool):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(num_features))
            self.bias = Parameter(np.zeros(num_features))

    def _apply_affine(self, x_hat: Tensor) -> Tensor:
        if not self.affine:
            return x_hat
        shape = _affine_shape(x_hat.ndim, self.num_features)
        return x_hat * self.weight.reshape(shape) + self.bias.reshape(shape)

    def extra_repr(self) -> str:
        return f"{self.num_features}, eps={self.eps}, affine={self.affine}"


class BatchNorm2d(_AffineNormBase):
    """Batch normalization over ``(N, H, W)`` with running statistics."""

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        affine: bool = True,
    ):
        super().__init__(num_features, eps, affine)
        self.momentum = momentum
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _stat_axes(self, ndim: int) -> Tuple[int, ...]:
        return (0,) + tuple(range(2, ndim))

    def forward(self, x: Tensor) -> Tensor:
        axes = self._stat_axes(x.ndim)
        shape = _affine_shape(x.ndim, self.num_features)
        if self.training:
            mu = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            m = self.momentum
            self._buffers["running_mean"] = (
                (1 - m) * self._buffers["running_mean"] + m * mu.data.reshape(-1)
            )
            self._buffers["running_var"] = (
                (1 - m) * self._buffers["running_var"] + m * var.data.reshape(-1)
            )
            x_hat = (x - mu) / ops.sqrt(var + self.eps)
        else:
            mu = self._buffers["running_mean"].reshape(shape)
            var = self._buffers["running_var"].reshape(shape)
            x_hat = (x - mu) / np.sqrt(var + self.eps)
        return self._apply_affine(x_hat)


class BatchNorm1d(BatchNorm2d):
    """Batch normalization for ``(N, C)`` or ``(N, C, L)`` inputs."""

    def _stat_axes(self, ndim: int) -> Tuple[int, ...]:
        return (0,) if ndim == 2 else (0,) + tuple(range(2, ndim))


class LayerNorm(_AffineNormBase):
    """Per-instance normalization over all non-batch dimensions.

    Matches the paper's usage for CNNs: every instance's whole feature
    volume ``(C, H, W)`` is standardized, with per-channel affine
    parameters.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, affine: bool = True):
        super().__init__(num_features, eps, affine)

    def forward(self, x: Tensor) -> Tensor:
        axes = tuple(range(chip_axes(1), x.ndim))
        x_hat = normalize(x, axes, self.eps)
        return self._apply_affine(x_hat)


class InstanceNorm2d(_AffineNormBase):
    """Per-instance, per-channel normalization over spatial dims."""

    def __init__(self, num_features: int, eps: float = 1e-5, affine: bool = True):
        super().__init__(num_features, eps, affine)

    def forward(self, x: Tensor) -> Tensor:
        axes = tuple(range(chip_axes(2), x.ndim))
        x_hat = normalize(x, axes, self.eps)
        return self._apply_affine(x_hat)


class GroupNorm(_AffineNormBase):
    """Normalization over channel groups per instance.

    Parameters
    ----------
    num_groups:
        Number of channel groups; ``num_channels`` must divide evenly.
    """

    def __init__(
        self,
        num_groups: int,
        num_channels: int,
        eps: float = 1e-5,
        affine: bool = True,
    ):
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels={num_channels} not divisible by "
                f"num_groups={num_groups}"
            )
        super().__init__(num_channels, eps, affine)
        self.num_groups = num_groups

    def forward(self, x: Tensor) -> Tensor:
        c_axis = chip_axes(1)
        lead, c = x.shape[:c_axis], x.shape[c_axis]
        spatial = x.shape[c_axis + 1 :]
        grouped = x.reshape(*lead, self.num_groups, c // self.num_groups, *spatial)
        axes = tuple(range(c_axis + 1, grouped.ndim))
        x_hat = normalize(grouped, axes, self.eps).reshape(*lead, c, *spatial)
        return self._apply_affine(x_hat)

    def extra_repr(self) -> str:
        return (
            f"num_groups={self.num_groups}, num_channels={self.num_features}, "
            f"eps={self.eps}, affine={self.affine}"
        )
