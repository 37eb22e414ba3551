"""Method configurations: which normalization/stochasticity each network uses.

The paper's Table I compares four methods on every topology:

* **conventional** — the plain (non-Bayesian) NN with conventional
  normalization and no inference-time stochasticity;
* **SpinDrop** [8] — Bernoulli-dropout-based Bayesian NN (dropout after
  each normalization);
* **SpatialSpinDrop** [7] — spatial (channel-wise) dropout variant;
* **proposed** — the inverted normalization layer with stochastic affine
  transformations replacing every normalization layer (dropout-free).

A :class:`MethodConfig` is consumed by every model factory in
:mod:`repro.models`; it builds the appropriate normalization layer and
block-level dropout for the chosen method, so all methods share the same
backbone, training loop, and fault-injection surface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..core.inverted_norm import ConventionalNormAdapter, InvertedNorm
from ..nn import (
    BatchNorm1d,
    BatchNorm2d,
    Dropout,
    GroupNorm,
    Identity,
    LayerNorm,
    Module,
    SpatialDropout1d,
    SpatialDropout2d,
)

METHOD_NAMES = (
    "conventional",
    "spindrop",
    "spatial-spindrop",
    "proposed",
    "proposed-conventional-order",
)


@dataclass(frozen=True)
class MethodConfig:
    """Declarative method description.

    Parameters
    ----------
    name:
        One of :data:`METHOD_NAMES`.
    p:
        Dropout probability (conventional dropout or affine dropout;
        paper default 0.3).
    sigma_gamma, sigma_beta:
        Initialization spread of the inverted-norm affine parameters
        (Section III-C / IV-F; paper default 0.3).
    granularity:
        Affine-dropout granularity for the proposed method.
    init:
        ``"normal"`` or ``"uniform"`` affine initialization.
    conventional_norm:
        Normalization family for non-proposed methods: ``"batch"`` (CNN
        default), ``"layer"``, ``"group"``, or ``"none"``.
    """

    name: str = "proposed"
    p: float = 0.3
    sigma_gamma: float = 0.3
    sigma_beta: float = 0.3
    granularity: str = "vector"
    init: str = "normal"
    conventional_norm: str = "batch"
    #: Training-budget scale: dropout-based baselines converge slower, so
    #: each method trains to (its own) convergence for fair comparison.
    epochs_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.name not in METHOD_NAMES:
            raise ValueError(
                f"unknown method {self.name!r}; expected one of {METHOD_NAMES}"
            )

    # ------------------------------------------------------------------
    @property
    def uses_inverted_norm(self) -> bool:
        return self.name in ("proposed", "proposed-conventional-order")

    @property
    def is_bayesian(self) -> bool:
        """Methods evaluated with Monte Carlo sampling at inference."""
        return self.name != "conventional"

    def with_(self, **kwargs) -> "MethodConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    def make_norm(
        self,
        num_features: int,
        dims: str = "2d",
        mode: str = "instance",
        num_groups: int = 8,
    ) -> Module:
        """Normalization layer after a conv/linear/recurrent computation.

        ``mode``/``num_groups`` select the statistics of the *proposed*
        layer (instance for ResNet/M5/LSTM, group for U-Net, matching
        Section IV-A-1); non-proposed methods use ``conventional_norm``.
        """
        if self.uses_inverted_norm:
            cls = (
                InvertedNorm
                if self.name == "proposed"
                else ConventionalNormAdapter
            )
            kwargs = dict(
                p=self.p,
                mode=mode,
                num_groups=num_groups,
                sigma_gamma=self.sigma_gamma,
                sigma_beta=self.sigma_beta,
                granularity=self.granularity,
            )
            if cls is InvertedNorm:
                kwargs["init"] = self.init
            return cls(num_features, **kwargs)
        if self.conventional_norm == "batch":
            return BatchNorm2d(num_features) if dims == "2d" else BatchNorm1d(num_features)
        if self.conventional_norm == "layer":
            return LayerNorm(num_features)
        if self.conventional_norm == "group":
            return GroupNorm(num_groups, num_features)
        if self.conventional_norm == "none":
            return Identity()
        raise ValueError(f"unknown conventional norm {self.conventional_norm!r}")

    def network(self, dims: str) -> "MethodConfig":
        """The method whose network this one builds at dropout sites of
        ``dims`` (:data:`SPATIAL_DROPOUT`).

        Spatial dropout on ``"features"`` vectors is unit dropout, so
        there ``spatial-spindrop`` builds the ``spindrop`` network with
        the same ``p``, norm and ``epochs_multiplier``; every other
        method, and every other ``dims``, builds its own.
        """
        if dims not in SPATIAL_DROPOUT:
            raise ValueError(
                f"unknown dropout dims {dims!r}; expected one of "
                f"{tuple(SPATIAL_DROPOUT)}"
            )
        if self.name == "spatial-spindrop" and SPATIAL_DROPOUT[dims] is Dropout:
            return self.with_(name="spindrop")
        return self

    def make_dropout(self, dims: str = "2d") -> Module:
        """Block-level dropout for the SpinDrop-family baselines: the
        dropout of :meth:`network`, so the two cannot disagree."""
        name = self.network(dims).name
        if name == "spindrop":
            return Dropout(self.p)
        if name == "spatial-spindrop":
            return SPATIAL_DROPOUT[dims](self.p)
        return Identity()


#: Spatial dropout by the ``dims`` of the tensor a dropout site sees:
#: ``"2d"`` feature maps ``(n, C, H, W)``, ``"1d"`` sequences
#: ``(n, C, L)``, ``"features"`` vectors ``(n, F)`` (leading chip axes
#: aside).  A vector has no spatial axis, so dropping a whole channel
#: there is dropping one unit: spatial dropout is unit dropout, the same
#: mask shape drawn from the same stream.
SPATIAL_DROPOUT = {
    "2d": SpatialDropout2d,
    "1d": SpatialDropout1d,
    "features": Dropout,
}

#: ``epochs_multiplier`` of each method's factory where it is not the
#: :class:`MethodConfig` default of 1.0.
FACTORY_EPOCHS_MULTIPLIER = {"spindrop": 2.0, "spatial-spindrop": 2.0}


def conventional(**kwargs) -> MethodConfig:
    """The plain NN baseline (Table I column 'NN')."""
    return MethodConfig(name="conventional", **kwargs)


def spindrop(**kwargs) -> MethodConfig:
    """SpinDrop [8]: Bernoulli-dropout Bayesian NN."""
    kwargs.setdefault("epochs_multiplier", FACTORY_EPOCHS_MULTIPLIER["spindrop"])
    return MethodConfig(name="spindrop", **kwargs)


def spatial_spindrop(**kwargs) -> MethodConfig:
    """SpatialSpinDrop [7]: spatial-dropout Bayesian NN."""
    kwargs.setdefault(
        "epochs_multiplier", FACTORY_EPOCHS_MULTIPLIER["spatial-spindrop"]
    )
    return MethodConfig(name="spatial-spindrop", **kwargs)


def proposed(**kwargs) -> MethodConfig:
    """The paper's method: inverted normalization + affine dropout."""
    return MethodConfig(name="proposed", **kwargs)


def all_methods(**kwargs) -> list[MethodConfig]:
    """The four Table-I methods in the paper's column order."""
    return [
        conventional(**kwargs),
        spindrop(**kwargs),
        spatial_spindrop(**kwargs),
        proposed(**kwargs),
    ]
