"""Inverted normalization with stochastic affine transformations.

This is the paper's primary contribution (Section III).  Differences from a
conventional normalization layer:

1. **Inverted order** — the learnable affine transformation
   ``x * gamma + beta`` runs *before* normalization, not after (Fig. 2).
   ``gamma``/``beta`` are treated as ordinary weights/biases whose only
   objective is loss minimization.
2. **Affine Dropout** (Fig. 3) — on every sampled forward pass the weights
   are dropped **to one** and the biases **to zero**, independently, with
   probability ``p``.  Concretely with Bernoulli keep-masks ``m``:
   ``gamma_eff = gamma * m_g + (1 - m_g)`` and ``beta_eff = beta * m_b``.
   Vector-wise dropout (one mask per parameter vector, the hardware-friendly
   default used in the paper) and element-wise dropout (per channel) are both
   supported.
3. **Random initialization** (Section III-C) — ``gamma ~ N(1, sigma_gamma)``
   and ``beta ~ N(0, sigma_beta)`` (or uniform variants), instead of the
   conventional ones/zeros.
4. **Instance-level statistics** — normalization is computed per input
   instance over all features (LayerNorm-like, the paper's choice for
   ResNet-18 / M5 / LSTM) or per channel group (GroupNorm-like with groups
   of ``C_out / 8`` channels, the paper's choice for U-Net), with identical
   train- and test-time behaviour (no running statistics).

The stochastic affine transformation injects multiplicative and additive
randomness into each layer's weighted sum during training, which mirrors the
noise NVM non-idealities add at inference time and therefore hardens the
network against them; re-sampling the masks at inference time realizes
Monte Carlo Bayesian inference (Section III-D).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn.dropout import StochasticModule
from ..nn.module import Parameter
from ..nn.normalization import normalize
from ..tensor import Tensor
from ..tensor.chipbatch import chip_axes
from ..tensor.random import get_rng


class AffineDropoutSampler:
    """Samples the Bernoulli keep-masks for affine dropout (Fig. 3).

    Parameters
    ----------
    p:
        Drop probability for the weight and the bias (independently).
    granularity:
        ``"vector"`` — one Bernoulli draw per parameter vector per forward
        pass (the paper's efficient choice: a single RNG per layer in the
        IMC implementation); ``"element"`` — independent draw per channel.
    """

    def __init__(self, p: float = 0.3, granularity: str = "vector"):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        if granularity not in ("vector", "element"):
            raise ValueError(
                f"granularity must be 'vector' or 'element', got {granularity!r}"
            )
        self.p = p
        self.granularity = granularity

    def sample(
        self, num_features: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return independent keep-masks ``(m_gamma, m_beta)``.

        Shape ``(num_features,)`` normally.  When the active generator is a
        chip batch (:class:`~repro.tensor.chipbatch.ChipBatchRng`), one mask
        pair is drawn *per chip* from that chip's own stream — exactly the
        draws the serial engine would make — and stacked to
        ``(n_chips, num_features)``.
        """
        rng = rng or get_rng()
        per_chip = getattr(rng, "generators", None)
        if per_chip is not None:
            pairs = [self.sample(num_features, g) for g in per_chip]
            return (
                np.stack([m_g for m_g, _ in pairs], axis=0),
                np.stack([m_b for _, m_b in pairs], axis=0),
            )
        if self.granularity == "vector":
            m_g = np.full(num_features, float(rng.random() >= self.p))
            m_b = np.full(num_features, float(rng.random() >= self.p))
        else:
            m_g = (rng.random(num_features) >= self.p).astype(np.float64)
            m_b = (rng.random(num_features) >= self.p).astype(np.float64)
        return m_g, m_b


class InvertedNorm(StochasticModule):
    """Inverted normalization layer with stochastic affine transformations.

    Drop-in replacement for a conventional normalization layer following a
    convolutional (or linear / recurrent) layer.

    Parameters
    ----------
    num_features:
        Number of channels (dimension 1 of the input).
    p:
        Affine-dropout probability (paper uses 0.3 for all models).
    mode:
        ``"instance"`` — normalize each instance over all non-batch dims
        (LayerNorm-like; ResNet-18, M5, LSTM in the paper);
        ``"group"`` — normalize channel groups per instance (GroupNorm-like;
        U-Net in the paper, with ``num_groups = 8`` so each group spans
        ``C_out / 8`` channels).
    num_groups:
        Number of channel groups for ``mode="group"``.
    init:
        ``"normal"`` — ``gamma ~ N(1, sigma_gamma)``, ``beta ~ N(0,
        sigma_beta)``; ``"uniform"`` — ``gamma ~ U(0, k_gamma)``,
        ``beta ~ U(-k_beta, k_beta)`` (Section III-C).
    granularity:
        Affine-dropout granularity, ``"vector"`` (default) or ``"element"``.
    eps:
        Numerical-stability constant of the normalization.

    Notes
    -----
    When neither training nor ``stochastic_inference`` is active the layer
    uses the *expected* affine parameters ``E[gamma_eff] = (1-p) gamma + p``
    and ``E[beta_eff] = (1-p) beta`` — a deterministic single-pass
    approximation of the Bayesian average (analogous to standard dropout
    rescaling).  All paper experiments run with Monte Carlo sampling via
    :func:`repro.core.bayesian.enable_stochastic_inference`.
    """

    def __init__(
        self,
        num_features: int,
        p: float = 0.3,
        mode: str = "instance",
        num_groups: int = 8,
        init: str = "normal",
        sigma_gamma: float = 0.3,
        sigma_beta: float = 0.3,
        k_gamma: float = 1.0,
        k_beta: float = 0.5,
        granularity: str = "vector",
        eps: float = 1e-5,
    ):
        super().__init__()
        if mode not in ("instance", "group"):
            raise ValueError(f"mode must be 'instance' or 'group', got {mode!r}")
        if mode == "group" and num_features % num_groups != 0:
            raise ValueError(
                f"num_features={num_features} not divisible by "
                f"num_groups={num_groups}"
            )
        self.num_features = num_features
        self.mode = mode
        self.num_groups = num_groups
        self.eps = eps
        self.dropout = AffineDropoutSampler(p=p, granularity=granularity)
        rng = get_rng()
        if init == "normal":
            weight = rng.normal(1.0, sigma_gamma, size=num_features)
            bias = rng.normal(0.0, sigma_beta, size=num_features)
        elif init == "uniform":
            weight = rng.uniform(0.0, k_gamma, size=num_features)
            bias = rng.uniform(-k_beta, k_beta, size=num_features)
        else:
            raise ValueError(f"init must be 'normal' or 'uniform', got {init!r}")
        self.weight = Parameter(weight)
        self.bias = Parameter(bias)

    @property
    def p(self) -> float:
        return self.dropout.p

    def _sample_affine_masks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``(m_gamma, 1 - m_gamma, m_beta)`` in one sampling thunk.

        The complement is cached with the masks, so a frozen mask scope
        reuses it across forwards.
        """
        m_g, m_b = self.dropout.sample(self.num_features)
        return m_g, 1.0 - m_g, m_b

    def _effective_affine(self) -> Tuple[Tensor, Tensor]:
        """Apply affine dropout (Fig. 3) or its expectation."""
        if self.sampling:
            m_g, one_minus_g, m_b = self._scoped_mask(
                self._sample_affine_masks, self.num_features
            )
            gamma = self.weight * Tensor(m_g) + Tensor(one_minus_g)
            beta = self.bias * Tensor(m_b)
        else:
            keep = 1.0 - self.dropout.p
            gamma = self.weight * keep + self.dropout.p
            beta = self.bias * keep
        return gamma, beta

    def _param_shape(self, param_ndim: int, x_ndim: int) -> Tuple[int, ...]:
        """Broadcast shape placing features on the channel axis of ``x``.

        Under a chip batch the channel axis is 2 and per-chip sampled
        masks (``param_ndim == 2``) keep their leading chip axis.
        """
        c_axis = chip_axes(1)
        lead = (1,) * c_axis if param_ndim == 1 else (-1,) + (1,) * (c_axis - 1)
        return lead + (self.num_features,) + (1,) * (x_ndim - c_axis - 1)

    def forward(self, x: Tensor) -> Tensor:
        c_axis = chip_axes(1)
        if x.shape[c_axis] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels, got {x.shape[c_axis]} "
                f"(input shape {x.shape})"
            )
        gamma, beta = self._effective_affine()
        # Inverted order: affine transformation FIRST (Fig. 2b) ...
        z = x * gamma.reshape(self._param_shape(gamma.ndim, x.ndim)) + beta.reshape(
            self._param_shape(beta.ndim, x.ndim)
        )
        # ... then normalization (per instance or per channel group), never
        # mixing statistics across chips of a batch.
        if self.mode == "instance":
            return normalize(z, tuple(range(c_axis, z.ndim)), self.eps)
        lead, c = z.shape[:c_axis], z.shape[c_axis]
        spatial = z.shape[c_axis + 1 :]
        grouped = z.reshape(*lead, self.num_groups, c // self.num_groups, *spatial)
        axes = tuple(range(c_axis + 1, grouped.ndim))
        return normalize(grouped, axes, self.eps).reshape(*lead, c, *spatial)

    def extra_repr(self) -> str:
        return (
            f"{self.num_features}, p={self.dropout.p}, mode={self.mode!r}, "
            f"granularity={self.dropout.granularity!r}"
        )


class ConventionalNormAdapter(StochasticModule):
    """Ablation helper: conventional order (normalize, then affine dropout).

    Used by the component-ablation benchmark to isolate the contribution of
    the *inverted* order from the contribution of the stochastic affine
    parameters: this layer keeps affine dropout and random initialization
    but applies the affine transformation after normalization, like a
    conventional layer.
    """

    def __init__(self, num_features: int, p: float = 0.3, mode: str = "instance",
                 num_groups: int = 8, sigma_gamma: float = 0.3,
                 sigma_beta: float = 0.3, eps: float = 1e-5,
                 granularity: str = "vector"):
        super().__init__()
        self._inner = InvertedNorm(
            num_features,
            p=p,
            mode=mode,
            num_groups=num_groups,
            sigma_gamma=sigma_gamma,
            sigma_beta=sigma_beta,
            eps=eps,
            granularity=granularity,
        )

    @property
    def weight(self):
        return self._inner.weight

    @property
    def bias(self):
        return self._inner.bias

    def forward(self, x: Tensor) -> Tensor:
        inner = self._inner
        inner.stochastic_inference = self.stochastic_inference
        object.__setattr__(inner, "training", self.training)
        c_axis = chip_axes(1)
        # Normalize first (conventional order) ...
        if inner.mode == "instance":
            x_hat = normalize(x, tuple(range(c_axis, x.ndim)), inner.eps)
        else:
            lead, c = x.shape[:c_axis], x.shape[c_axis]
            spatial = x.shape[c_axis + 1 :]
            grouped = x.reshape(
                *lead, inner.num_groups, c // inner.num_groups, *spatial
            )
            axes = tuple(range(c_axis + 1, grouped.ndim))
            x_hat = normalize(grouped, axes, inner.eps).reshape(*lead, c, *spatial)
        # ... then the stochastic affine transformation.
        gamma, beta = inner._effective_affine()
        return x_hat * gamma.reshape(
            inner._param_shape(gamma.ndim, x.ndim)
        ) + beta.reshape(inner._param_shape(beta.ndim, x.ndim))

    def extra_repr(self) -> str:
        return self._inner.extra_repr()
