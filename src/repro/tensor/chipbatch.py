"""Instance-batch context: evaluate stacked model instances in one pass.

Monte Carlo fault campaigns simulate ``R`` independent chip instances per
fault scenario, and Bayesian methods additionally average ``S`` stochastic
forward passes (MC dropout / affine dropout) per prediction.  The per-cell
reference evaluates all of that one pass at a time; the campaign engine's
stacked passes instead stack instances along a leading *instance axis* and
run a single vectorized forward, so every numpy kernel amortizes its
dispatch overhead over the whole stack.

The instance axis is composable out of two sub-axes, in **instance-major,
then sample** order: the campaign engine opens a :func:`chip_batch` of
``N`` stacked instances (one per campaign cell, from one fault scenario
or several), and Monte Carlo inference
(:func:`repro.core.bayesian.mc_forward`) may multiply it by an MC-sample
sub-axis of ``S`` via :func:`mc_sample_axis`, so one forward carries
``N x S`` instances (instance ``i`` is cell ``i // S``, sample
``i % S``).  Layers never need to know the decomposition — they see one
leading axis of size :func:`active_chip_count`; only components that
hold *per-cell* frozen state (the stacked fault hooks) consult
:func:`active_sample_count` to repeat their patterns across the sample
sub-axis.

This module provides the thread-local state that makes a batched pass
*bit-identical per instance* to the serial reference:

* :func:`chip_batch` / :func:`mc_sample_axis` — context managers
  announcing the instance-axis layout (:func:`sample_axis_hidden`
  suspends the sample sub-axis for work all samples share).  Layers
  with shape-dependent logic (normalization feature axes,
  spatial-dropout mask shapes, the inverted norm's affine reshape)
  consult :func:`active_chip_count` to shift their channel axis from 1
  to 2.  The invariant maintained by the batched
  evaluators is that **every activation inside the context has a leading
  instance axis** (inputs are broadcast up front), so a single flag
  suffices — no per-tensor rank guessing.
* :class:`ChipBatchRng` — a stack of per-instance generators that
  satisfies leading-instance-axis draws by drawing each instance's slice
  from its own generator.  A serial cell draws its dropout masks /
  affine-dropout coin flips / activation noise from the cell's own
  ``SeedSequence``-derived stream; the batched pass installs a
  ``ChipBatchRng`` over exactly those per-cell streams via
  :func:`~repro.tensor.random.scoped_rng`, so instance ``i``'s slice of
  every mask is the very array the serial engine would have drawn.
* :func:`spawn_sample_streams` — the one canonical derivation of
  per-MC-sample streams from a cell stream (``Generator.spawn``, i.e.
  ``SeedSequence`` children).  Both the looped MC path (outside a chip
  batch) and the stacked one (inside a chip batch) call it exactly once
  per :func:`~repro.core.bayesian.mc_forward` invocation, which is what
  makes them bit-identical to each other.
* :func:`mc_sample_scope` / :func:`current_mc_sample` — the looped path's
  per-pass sample coordinates, consulted by components that keep their own
  streams (activation-noise fault hooks) to select the matching
  ``SeedSequence`` child.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

_STATE = threading.local()


def active_chip_count() -> Optional[int]:
    """Total instances in the active batch on this thread, or ``None``.

    This is the size of the leading instance axis every activation carries:
    ``chips * mc_samples`` when both sub-axes are active.
    """
    chips = getattr(_STATE, "n_chips", None)
    samples = getattr(_STATE, "n_samples", None)
    if chips is None and samples is None:
        return None
    return (chips or 1) * (samples or 1)


def active_sample_count() -> Optional[int]:
    """Size of the MC-sample sub-axis, or ``None`` outside one.

    Components holding *per-cell* frozen state (stacked weight-fault
    hooks) repeat their patterns this many times along the instance axis.
    """
    return getattr(_STATE, "n_samples", None)


def chip_axes(extra: int = 0) -> int:
    """Index offset added by the instance axis (0 outside a batch, 1 inside).

    ``extra`` is added for convenience: ``chip_axes(1)`` is the channel
    axis of an NCHW activation in either mode.
    """
    return extra + (1 if active_chip_count() is not None else 0)


@contextlib.contextmanager
def chip_batch(n_chips: int) -> Iterator[int]:
    """Mark this thread as evaluating ``n_chips`` stacked chip instances.

    Nestable and exception-safe.  While active, instance-aware layers treat
    axis 0 of every activation as the instance axis.
    """
    n_chips = int(n_chips)
    if n_chips < 1:
        raise ValueError(f"chip batch needs >= 1 chip, got {n_chips}")
    previous = getattr(_STATE, "n_chips", None)
    _STATE.n_chips = n_chips
    try:
        yield n_chips
    finally:
        _STATE.n_chips = previous


@contextlib.contextmanager
def mc_sample_axis(n_samples: int) -> Iterator[int]:
    """Multiply the active instance axis by an MC-sample sub-axis.

    Entered by the batched Monte Carlo path around its single stacked
    forward: with a :func:`chip_batch` of ``C`` active, the instance axis
    becomes ``C x n_samples`` in chip-major order; with no chip batch it is
    simply ``n_samples``.  Nestable and exception-safe.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"MC sample axis needs >= 1 sample, got {n_samples}")
    previous = getattr(_STATE, "n_samples", None)
    _STATE.n_samples = n_samples
    try:
        yield n_samples
    finally:
        _STATE.n_samples = previous


@contextlib.contextmanager
def sample_axis_hidden() -> Iterator[None]:
    """Hide the MC-sample sub-axis: the instance axis is the chips alone.

    For work every MC sample of a chip shares (a layer that no
    stochastic site precedes), run on one instance per chip: inside,
    :func:`active_sample_count` is ``None`` and :func:`active_chip_count`
    the chip count, so stacked fault hooks return one pattern per chip.
    Nestable and exception-safe.
    """
    previous = getattr(_STATE, "n_samples", None)
    _STATE.n_samples = None
    try:
        yield
    finally:
        _STATE.n_samples = previous


# ----------------------------------------------------------------------
# Looped-pass sample scope
# ----------------------------------------------------------------------
def current_mc_sample() -> Optional[Tuple[int, int]]:
    """``(sample_index, num_samples)`` of the looped MC pass, or ``None``.

    Set by ``mc_forward``'s looped path around pass ``s`` so components
    with private streams (activation-noise hooks) can select the matching
    per-sample ``SeedSequence`` child — the same child the batched path
    assigns to instance sub-index ``s``.
    """
    return getattr(_STATE, "mc_sample", None)


@contextlib.contextmanager
def mc_sample_scope(index: int, total: int) -> Iterator[None]:
    """Mark this thread as inside looped MC pass ``index`` of ``total``."""
    previous = getattr(_STATE, "mc_sample", None)
    _STATE.mc_sample = (int(index), int(total))
    try:
        yield
    finally:
        _STATE.mc_sample = previous


class ChipBatchRng:
    """Per-instance generator stack behind a ``np.random.Generator``-like API.

    Every draw must request a shape whose leading dimension equals the
    instance count; the result is the per-instance draws stacked along
    axis 0.  Instance ``i``'s slice is therefore bit-identical to what the
    serial engine draws from ``generators[i]`` for the same call sequence.

    Components that sample *per parameter vector* rather than per
    activation (e.g. the affine-dropout sampler's scalar coin flips) can
    reach the underlying streams through :attr:`generators`.
    """

    def __init__(self, generators: Sequence[np.random.Generator]):
        self.generators = list(generators)
        if not self.generators:
            raise ValueError("ChipBatchRng needs at least one generator")

    @property
    def n_chips(self) -> int:
        return len(self.generators)

    def spawn(self, n_children: int) -> List[List[np.random.Generator]]:
        """Spawn ``n_children`` ``SeedSequence`` children per instance.

        Returns one child list per instance stream, in instance order —
        the raw material for per-sample stream derivation (see
        :func:`spawn_sample_streams`).
        """
        return [list(g.spawn(n_children)) for g in self.generators]

    def _stacked(self, draw, size) -> np.ndarray:
        if size is None:
            raise RuntimeError(
                "scalar draws are ambiguous under a chip batch; draw from "
                "ChipBatchRng.generators[i] explicitly instead"
            )
        shape = (size,) if isinstance(size, int) else tuple(size)
        if not shape or shape[0] != self.n_chips:
            raise RuntimeError(
                f"chip-batched draws must lead with the instance axis "
                f"({self.n_chips}); got shape {shape}"
            )
        inner = shape[1:]
        return np.stack([draw(g, inner) for g in self.generators], axis=0)

    # The Generator subset the evaluation path uses (dropout masks,
    # Gaussian dropout noise, DropConnect weight masks).
    def random(self, size=None) -> np.ndarray:
        return self._stacked(lambda g, s: g.random(s), size)

    def standard_normal(self, size=None) -> np.ndarray:
        return self._stacked(lambda g, s: g.standard_normal(s), size)

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._stacked(lambda g, s: g.normal(loc, scale, s), size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._stacked(lambda g, s: g.uniform(low, high, s), size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._stacked(lambda g, s: g.integers(low, high, size=s), size)


def spawn_sample_streams(
    rng: Union[np.random.Generator, ChipBatchRng], num_samples: int
) -> Tuple[List, List[np.random.Generator]]:
    """Derive per-MC-sample streams from the active evaluation generator.

    Returns ``(per_sample, per_instance)``:

    * ``per_sample[s]`` — the generator (or :class:`ChipBatchRng`) the
      looped path scopes for pass ``s``;
    * ``per_instance`` — the same streams flattened chip-major
      (``chip * num_samples + sample``), ready to back a single
      :class:`ChipBatchRng` for the stacked pass.

    Both views are built from one ``Generator.spawn`` call per underlying
    stream, so the looped and batched paths consume identical
    ``SeedSequence`` children in identical order — the root of their
    bit-for-bit equivalence.  Each ``mc_forward`` invocation calls this
    exactly once, advancing the parent's spawn counter deterministically.
    """
    if isinstance(rng, ChipBatchRng):
        kids = rng.spawn(num_samples)  # [chip][sample]
        per_sample = [
            ChipBatchRng([chip_kids[s] for chip_kids in kids])
            for s in range(num_samples)
        ]
        per_instance = [child for chip_kids in kids for child in chip_kids]
        return per_sample, per_instance
    kids = list(rng.spawn(num_samples))
    return kids, list(kids)
