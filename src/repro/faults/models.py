"""NVM non-ideality models (Section IV-A-2 of the paper).

The paper abstracts circuit-level non-idealities into algorithmic noise
models, following [16]:

* **conductance variation** (manufacturing + thermal) — additive noise
  ``N(0, sigma)`` and multiplicative noise ``1 + N(0, sigma)``.  For
  networks with multi-bit weights the noise is injected into the weights;
  for binary networks it is injected into the normalized activations before
  the ``Sign(.)`` function.
* **programming errors / retention faults** — random bit flips in the
  quantized parameter codes, re-drawn for each simulated chip instance.
* **uniform noise** of varying strength (LSTM experiment).

All models here are *deterministic per chip instance*: a model instance is
constructed with its own RNG and freezes the fault pattern for a given
weight shape on first use, so every forward pass within one Monte Carlo run
sees the same (faulty) chip, while activation-site noise — whose realization
depends on the data flowing through — is drawn fresh per pass from the same
chip-specific stream.

Additive noise scales are expressed in units of each layer's weight scale
(``sigma * qmax`` in code space, i.e. ``sigma * max|w|`` in weight space)
for multi-bit weights and directly in units of the unit-variance normalized
activations for binary networks, so a given ``sigma`` is comparable across
layers and topologies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..quant.functional import QuantizedWeight
from ..tensor.chipbatch import active_sample_count, current_mc_sample

# Process-wide monotonic tokens identifying fault-hook instances.  The
# deployment-frozen quantization cache keys faulty weights on this token:
# unlike ``id()`` a token is never recycled, so a detached hook can never be
# confused with a freshly attached one.
_FAULT_TOKENS = itertools.count(1)


class WeightFaultModel:
    """Base class: perturb quantized weight codes, frozen per chip."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.fault_token = next(_FAULT_TOKENS)
        self._cache: Dict[Tuple[int, ...], np.ndarray] = {}

    def __call__(self, qw: QuantizedWeight) -> np.ndarray:
        key = self._cache_key(qw)
        if key not in self._cache:
            self._cache[key] = self._generate(qw)
        return self._apply(qw, self._cache[key])

    def _cache_key(self, qw: QuantizedWeight) -> Tuple[int, ...]:
        # One frozen pattern per weight shape+bits.  The injector attaches a
        # dedicated model instance to every layer hook, so a cache never
        # serves two different weight tensors of the same shape.
        return (qw.bits,) + tuple(qw.codes.shape)

    def _generate(self, qw: QuantizedWeight) -> np.ndarray:
        raise NotImplementedError

    def _apply(self, qw: QuantizedWeight, pattern: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class BitFlipFault(WeightFaultModel):
    """Flip each stored bit independently with probability ``rate``.

    For 1-bit weights a flip negates the code (the paper's binary fault).
    For k-bit weights the codes are viewed in sign-magnitude form (the
    natural encoding for differential G+/G- crossbar pairs): each of the
    ``bits`` bits — one sign bit plus ``bits - 1`` magnitude bits — flips
    independently, and the result is clipped back to the valid code range.
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__(rng)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"bit-flip rate must be in [0, 1], got {rate}")
        self.rate = rate

    def _generate(self, qw: QuantizedWeight) -> np.ndarray:
        if qw.bits == 1:
            return self.rng.random(qw.codes.shape) < self.rate
        return self.rng.random(qw.codes.shape + (qw.bits,)) < self.rate

    def _apply(self, qw: QuantizedWeight, pattern: np.ndarray) -> np.ndarray:
        if self.rate == 0.0:
            return qw.codes
        if qw.bits == 1:
            return np.where(pattern, -qw.codes, qw.codes)
        magnitude = np.abs(qw.codes).astype(np.int64)
        sign = np.sign(qw.codes).astype(np.int64)
        sign[sign == 0] = 1
        # bit 0 .. bits-2: magnitude bits; bit bits-1: sign bit
        for b in range(qw.bits - 1):
            magnitude ^= pattern[..., b].astype(np.int64) << b
        sign = np.where(pattern[..., qw.bits - 1], -sign, sign)
        flipped = np.clip(sign * magnitude, -qw.qmax, qw.qmax)
        return flipped.astype(np.float64)


class AdditiveVariation(WeightFaultModel):
    """Additive conductance variation ``w' = w + N(0, sigma * max|w|)``."""

    def __init__(self, sigma: float, rng: np.random.Generator):
        super().__init__(rng)
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.sigma = sigma

    def _generate(self, qw: QuantizedWeight) -> np.ndarray:
        return self.rng.normal(0.0, 1.0, size=qw.codes.shape)

    def _apply(self, qw: QuantizedWeight, pattern: np.ndarray) -> np.ndarray:
        if self.sigma == 0.0:
            return qw.codes
        return qw.codes + self.sigma * qw.qmax * pattern


class MultiplicativeVariation(WeightFaultModel):
    """Multiplicative conductance variation ``w' = w * (1 + N(0, sigma))``."""

    def __init__(self, sigma: float, rng: np.random.Generator):
        super().__init__(rng)
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.sigma = sigma

    def _generate(self, qw: QuantizedWeight) -> np.ndarray:
        return self.rng.normal(0.0, 1.0, size=qw.codes.shape)

    def _apply(self, qw: QuantizedWeight, pattern: np.ndarray) -> np.ndarray:
        if self.sigma == 0.0:
            return qw.codes
        return qw.codes * (1.0 + self.sigma * pattern)


class UniformNoiseFault(WeightFaultModel):
    """Uniform noise ``w' = w + U(-s, s) * max|w|`` (LSTM experiment)."""

    def __init__(self, strength: float, rng: np.random.Generator):
        super().__init__(rng)
        if strength < 0:
            raise ValueError(f"strength must be >= 0, got {strength}")
        self.strength = strength

    def _generate(self, qw: QuantizedWeight) -> np.ndarray:
        return self.rng.uniform(-1.0, 1.0, size=qw.codes.shape)

    def _apply(self, qw: QuantizedWeight, pattern: np.ndarray) -> np.ndarray:
        if self.strength == 0.0:
            return qw.codes
        return qw.codes + self.strength * qw.qmax * pattern


class StuckAtFault(WeightFaultModel):
    """A fraction of cells is stuck at a fixed conductance level.

    ``stuck_to`` ∈ {"low", "high", "zero"} — stuck-at-low maps the weight to
    the most negative code, stuck-at-high to the most positive, stuck-at-zero
    to 0 (defect/open-cell models from the IMC literature [3], [13]).
    """

    def __init__(self, rate: float, rng: np.random.Generator, stuck_to: str = "zero"):
        super().__init__(rng)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"stuck-at rate must be in [0, 1], got {rate}")
        if stuck_to not in ("low", "high", "zero"):
            raise ValueError(f"stuck_to must be low/high/zero, got {stuck_to!r}")
        self.rate = rate
        self.stuck_to = stuck_to

    def _generate(self, qw: QuantizedWeight) -> np.ndarray:
        return self.rng.random(qw.codes.shape) < self.rate

    def _apply(self, qw: QuantizedWeight, pattern: np.ndarray) -> np.ndarray:
        if self.rate == 0.0:
            return qw.codes
        if self.stuck_to == "zero":
            value = 0.0 if qw.bits > 1 else 1.0  # binary cells have no zero state
        elif self.stuck_to == "high":
            value = float(qw.qmax)
        else:
            value = -float(qw.qmax)
        return np.where(pattern, value, qw.codes)


class ActivationNoise:
    """Additive/multiplicative/uniform noise on normalized activations.

    The injection site for binary networks (pre-``Sign``): the incoming
    activations are standardized by the preceding normalization layer, so
    ``sigma`` is directly in units of activation standard deviations.
    Noise realizations depend on the live activations and are therefore
    drawn per forward pass from the chip's RNG stream.

    Monte Carlo sample streams
    --------------------------
    Inside Bayesian inference, pass ``s`` of ``S`` draws its noise from the
    ``s``-th ``SeedSequence`` child of the chip stream (spawned once,
    lazily) rather than from the raw stream — mirroring how evaluation
    randomness is indexed per sample (see
    :func:`repro.tensor.chipbatch.spawn_sample_streams`).  Sample ``s``'s
    noise is then a pure function of ``(chip stream, s)``, which is what
    lets the MC-batched engine draw all samples in one stacked pass with
    bit-identical slices.  Outside an MC pass (training, conventional
    single-pass evaluation) the raw stream is used directly.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        additive_sigma: float = 0.0,
        multiplicative_sigma: float = 0.0,
        uniform_strength: float = 0.0,
    ):
        self.rng = rng
        self.additive_sigma = additive_sigma
        self.multiplicative_sigma = multiplicative_sigma
        self.uniform_strength = uniform_strength
        self._children: Optional[List[np.random.Generator]] = None

    def _sample_children(self, total: int) -> List[np.random.Generator]:
        """Per-MC-sample child streams, spawned once from the chip stream."""
        if self._children is None or len(self._children) != total:
            self._children = list(self.rng.spawn(total))
        return self._children

    def _stream(self) -> np.random.Generator:
        scope = current_mc_sample()
        if scope is None:
            return self.rng
        index, total = scope
        return self._sample_children(total)[index]

    def spawn_instances(self, num_samples: int) -> List["ActivationNoise"]:
        """One noise model per MC sample, sharing this chip's child streams.

        Used by :class:`ChipBatchedActivationNoise` to expand a per-chip
        model across the MC-sample sub-axis: instance ``s`` draws from the
        very child stream the looped path's pass ``s`` would use.
        """
        return [
            ActivationNoise(
                child,
                additive_sigma=self.additive_sigma,
                multiplicative_sigma=self.multiplicative_sigma,
                uniform_strength=self.uniform_strength,
            )
            for child in self._sample_children(num_samples)
        ]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = x
        rng = self._stream()
        if self.multiplicative_sigma > 0.0:
            out = out * (1.0 + rng.normal(0.0, self.multiplicative_sigma, x.shape))
        if self.additive_sigma > 0.0:
            out = out + rng.normal(0.0, self.additive_sigma, x.shape)
        if self.uniform_strength > 0.0:
            out = out + rng.uniform(
                -self.uniform_strength, self.uniform_strength, x.shape
            )
        return out


@dataclass
class FaultSpec:
    """Declarative description of one non-ideality scenario.

    Attributes
    ----------
    kind:
        ``"bitflip"`` | ``"additive"`` | ``"multiplicative"`` | ``"uniform"``
        | ``"stuck"`` | ``"none"``.
    level:
        Bit-flip rate, noise sigma, or uniform strength depending on kind.
    stuck_to:
        Only for ``kind="stuck"``.
    """

    kind: str
    level: float
    stuck_to: str = "zero"

    VALID_KINDS = (
        "bitflip",
        "additive",
        "multiplicative",
        "uniform",
        "stuck",
        "drift",
        "none",
    )

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def build_weight_model(self, rng: np.random.Generator) -> Optional[WeightFaultModel]:
        if self.is_fault_free:
            return None
        if self.kind == "bitflip":
            return BitFlipFault(self.level, rng)
        if self.kind == "additive":
            return AdditiveVariation(self.level, rng)
        if self.kind == "multiplicative":
            return MultiplicativeVariation(self.level, rng)
        if self.kind == "uniform":
            return UniformNoiseFault(self.level, rng)
        if self.kind == "stuck":
            return StuckAtFault(self.level, rng, stuck_to=self.stuck_to)
        if self.kind == "drift":
            # level = hours since programming
            return RetentionDriftFault(rng, t_hours=max(1.0, self.level))
        return None

    def build_activation_model(self, rng: np.random.Generator) -> Optional[ActivationNoise]:
        if self.is_fault_free:
            return None
        if self.kind == "additive":
            return ActivationNoise(rng, additive_sigma=self.level)
        if self.kind == "multiplicative":
            return ActivationNoise(rng, multiplicative_sigma=self.level)
        if self.kind == "uniform":
            return ActivationNoise(rng, uniform_strength=self.level)
        return None

    @property
    def is_fault_free(self) -> bool:
        """No fault at all: ``kind="none"`` or a zero level."""
        return self.kind == "none" or self.level == 0.0

    @property
    def is_variation(self) -> bool:
        """Conductance-variation style (injected at activations for binary)."""
        return self.kind in ("additive", "multiplicative", "uniform")

    def describe(self) -> str:
        if self.kind == "none":
            return "fault-free"
        unit = "%" if self.kind == "bitflip" else ""
        level = self.level * 100 if self.kind == "bitflip" else self.level
        return f"{self.kind}={level:g}{unit}"


class RetentionDriftFault(WeightFaultModel):
    """Retention drift: stored conductances decay toward the off state.

    The paper lists drift among the runtime non-idealities (Section I);
    phase-change and some resistive cells lose conductance over time as
    ``g(t) = g0 * (t / t0) ** (-nu)`` with a device-specific drift exponent.
    At the weight level this shrinks the magnitude of every stored code by
    a deterministic factor plus device-to-device variation in ``nu``:

    ``w(t) = w * (t / t0) ** (-(nu + eps))``, ``eps ~ N(0, sigma_nu)``.

    Parameters
    ----------
    t_hours:
        Time since programming (in units of the 1-hour reference ``t0``).
    nu:
        Mean drift exponent (typical PCM value ~0.05).
    sigma_nu:
        Device-to-device spread of the exponent.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        t_hours: float = 24.0,
        nu: float = 0.05,
        sigma_nu: float = 0.02,
    ):
        super().__init__(rng)
        if t_hours < 1.0:
            raise ValueError(f"t_hours must be >= 1 (t0 reference), got {t_hours}")
        self.t_hours = t_hours
        self.nu = nu
        self.sigma_nu = sigma_nu

    def _generate(self, qw: QuantizedWeight) -> np.ndarray:
        exponents = self.nu + self.rng.normal(0.0, self.sigma_nu, qw.codes.shape)
        return self.t_hours ** (-np.clip(exponents, 0.0, None))

    def _apply(self, qw: QuantizedWeight, pattern: np.ndarray) -> np.ndarray:
        return qw.codes * pattern


# ----------------------------------------------------------------------
# Stacked fault hooks (the campaign engine's stacked passes)
# ----------------------------------------------------------------------
class StackedWeightFault:
    """Weight-fault hook of a stacked pass: one cell's model per instance.

    Plugs into the same ``layer.weight_fault`` slot as a
    :class:`WeightFaultModel` and holds the very models
    :meth:`FaultInjector.attach <repro.faults.campaign.FaultInjector.attach>`
    builds for each stacked cell, so instance ``i`` of the returned
    ``(n_cells, *codes.shape)`` stack is cell ``i``'s perturbed codes, bit
    for bit, whatever its severity.  Under an MC-sample sub-axis the stack
    repeats along it: a programmed chip holds one fault pattern across all
    its stochastic passes.
    """

    def __init__(self, models: Sequence[WeightFaultModel]):
        self.models = list(models)
        self.fault_token = next(_FAULT_TOKENS)

    def __call__(self, qw: QuantizedWeight) -> np.ndarray:
        codes = np.stack([model(qw) for model in self.models], axis=0)
        samples = active_sample_count() or 1
        if samples > 1:
            codes = np.repeat(codes, samples, axis=0)
        return codes


class ChipBatchedActivationNoise:
    """Activation-noise hook applying each chip's own noise stream.

    Holds one serial :class:`ActivationNoise` per chip and perturbs an
    activation ``(n_instances, ...)`` slice by slice from each instance's
    stream.  Inside a stacked pass every activation carries the instance
    axis (evaluators broadcast their inputs, ``mc_forward`` repeats them),
    so a leading axis of any other size is an error, not a broadcast.

    Under an MC-sample sub-axis of ``S`` the per-chip models expand
    (chip-major, cached) into ``chips x S`` per-instance models via
    :meth:`ActivationNoise.spawn_instances`, so instance ``(c, s)`` draws
    from chip ``c``'s ``s``-th ``SeedSequence`` child — the stream the
    looped path's pass ``s`` uses.  The expansion persists across
    evaluation batches, matching the serial streams' continuation.
    """

    def __init__(self, models: Sequence[ActivationNoise]):
        self.models = list(models)
        self._expanded: Optional[List[ActivationNoise]] = None
        self._expanded_samples: Optional[int] = None

    def _active_models(self) -> List[ActivationNoise]:
        samples = active_sample_count() or 1
        if samples == 1:
            return self.models
        if self._expanded is None or self._expanded_samples != samples:
            self._expanded = [
                instance
                for model in self.models
                for instance in model.spawn_instances(samples)
            ]
            self._expanded_samples = samples
        return self._expanded

    def __call__(self, x: np.ndarray) -> np.ndarray:
        models = self._active_models()
        if not x.ndim or x.shape[0] != len(models):
            raise ValueError(
                f"stacked activation noise for {len(models)} instances got "
                f"an activation of shape {x.shape}"
            )
        return np.stack([model(x[i]) for i, model in enumerate(models)], axis=0)
