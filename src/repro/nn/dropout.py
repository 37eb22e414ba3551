"""Dropout variants (Section II-C of the paper).

These implement the stochastic baselines the paper compares against:

* :class:`Dropout` — conventional Bernoulli unit dropout (SpinDrop [8] uses
  this after conv blocks of a binary NN).
* :class:`SpatialDropout2d` / :class:`SpatialDropout1d` — drop whole feature
  maps (SpatialSpinDrop [7]).
* :class:`DropConnect` — drop weights of a wrapped linear layer.
* :class:`GaussianDropout` — multiplicative Gaussian noise variant.

All of them inherit :class:`StochasticModule`: they are active during
training and — for Bayesian Monte Carlo inference — whenever
``stochastic_inference`` is switched on (see
:func:`repro.core.bayesian.enable_stochastic_inference`).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, ops
from ..tensor.chipbatch import active_chip_count, chip_axes
from ..tensor.random import get_rng
from .module import Module


class StochasticModule(Module):
    """Base for modules that sample noise per forward pass.

    ``stochastic_inference`` keeps sampling active in ``eval()`` mode; this
    is how Monte Carlo Bayesian inference is realized across the library.

    ``mask_scope`` controls the sampling cadence: ``"call"`` (default)
    draws a fresh mask on every forward call, while ``"frozen"`` reuses one
    cached mask until :meth:`resample` is invoked.  Recurrent models use
    the frozen scope so that one mask is held across all timesteps of a
    sequence (variational-RNN-style, and what a hardware RNG sampled once
    per inference pass would do), resampling once per sequence.
    """

    def __init__(self) -> None:
        super().__init__()
        self.stochastic_inference = False
        self.mask_scope = "call"
        self._mask_cache = None

    @property
    def sampling(self) -> bool:
        return self.training or self.stochastic_inference

    def resample(self) -> None:
        """Invalidate the frozen mask so the next forward draws a new one."""
        self._mask_cache = None

    def _scoped_mask(self, sample_fn, shape_key):
        """Sample via ``sample_fn`` honouring the mask scope."""
        if self.mask_scope != "frozen":
            return sample_fn()
        if self._mask_cache is None or self._mask_cache[0] != shape_key:
            self._mask_cache = (shape_key, sample_fn())
        return self._mask_cache[1]


def resample_masks(module: Module) -> None:
    """Resample frozen masks of every stochastic submodule of ``module``."""
    for m in module.modules():
        if isinstance(m, StochasticModule):
            m.resample()


def set_mask_scope(module: Module, scope: str) -> None:
    """Set the mask scope (``"call"`` / ``"frozen"``) on all submodules."""
    if scope not in ("call", "frozen"):
        raise ValueError(f"scope must be 'call' or 'frozen', got {scope!r}")
    for m in module.modules():
        if isinstance(m, StochasticModule):
            m.mask_scope = scope
            m.resample()


class Dropout(StochasticModule):
    """Conventional inverted dropout with keep-probability rescaling."""

    def __init__(self, p: float = 0.5):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        if not self.sampling or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        shape = x.shape
        mask = self._scoped_mask(
            lambda: (get_rng().random(shape) < keep).astype(np.float64), shape
        )
        return ops.dropout_mask_apply(x, mask, scale=1.0 / keep)

    def extra_repr(self) -> str:
        return f"p={self.p}"


class SpatialDropout2d(StochasticModule):
    """Drop entire channels of an NCHW tensor (a.k.a. Dropout2d)."""

    def __init__(self, p: float = 0.5):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        if not self.sampling or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        # Mask over (batch, channels) — plus the leading chip axis when a
        # chip batch is active, so each simulated chip drops its own maps.
        lead = 2 + chip_axes()
        mask_shape = x.shape[:lead] + (1,) * (x.ndim - lead)
        mask = self._scoped_mask(
            lambda: (get_rng().random(mask_shape) < keep).astype(np.float64),
            mask_shape,
        )
        return ops.dropout_mask_apply(x, mask, scale=1.0 / keep)

    def extra_repr(self) -> str:
        return f"p={self.p}"


class SpatialDropout1d(SpatialDropout2d):
    """Drop entire channels of an NCL tensor."""


class GaussianDropout(StochasticModule):
    """Multiplicative Gaussian noise ``x * N(1, p/(1-p))``."""

    def __init__(self, p: float = 0.5):
        super().__init__()
        if not 0.0 < p < 1.0:
            raise ValueError(f"gaussian dropout rate must be in (0, 1), got {p}")
        self.p = p
        self._std = float(np.sqrt(p / (1.0 - p)))

    def forward(self, x: Tensor) -> Tensor:
        if not self.sampling:
            return x
        noise = get_rng().normal(1.0, self._std, size=x.shape)
        return ops.dropout_mask_apply(x, noise, scale=1.0)

    def extra_repr(self) -> str:
        return f"p={self.p}"


class DropConnect(StochasticModule):
    """Linear layer whose weights are randomly dropped per forward pass.

    Functional re-implementation of DropConnect for fully-connected layers:
    a fresh Bernoulli mask is applied to the weight matrix (with keep-prob
    rescaling) on every sampled forward pass, and gradients flow through the
    masked weights correctly.
    """

    def __init__(self, linear: "Module", p: float = 0.5):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropconnect probability must be in [0, 1), got {p}")
        if not hasattr(linear, "weight"):
            raise TypeError("DropConnect requires a linear module with .weight")
        self.linear = linear
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        if not self.sampling or self.p == 0.0:
            return self.linear(x)
        weight = self.linear.weight
        keep = 1.0 - self.p
        n_chips = active_chip_count()
        mask_shape = ((n_chips,) if n_chips else ()) + weight.shape
        mask = (get_rng().random(mask_shape) < keep).astype(np.float64)
        masked = ops.dropout_mask_apply(weight, mask, scale=1.0 / keep)
        out = x @ masked.swapaxes(-1, -2)
        if getattr(self.linear, "bias", None) is not None:
            out = out + self.linear.bias
        return out

    def extra_repr(self) -> str:
        return f"p={self.p}"
