"""Execution engine for Monte Carlo fault campaigns.

A fault campaign is an embarrassingly parallel grid: every
(scenario, chip-run) pair — a :class:`WorkCell` — is an independent
evaluation of the model under one frozen fault realization.
:func:`run_cells` evaluates that grid in *stacked passes*:

* :func:`evaluate_cells_stacked` stacks a flat list of same-kind faulty
  cells — from one scenario or several, each with its own severity —
  along a leading instance axis and runs ONE vectorized forward.  Each
  cell's fault hooks are the ones the per-cell attach builds from the
  cell's own stream, stacked per site
  (:meth:`~repro.faults.campaign.FaultInjector.attach_scenario_batched`),
  evaluation randomness goes through a
  :class:`~repro.tensor.chipbatch.ChipBatchRng` over the per-cell
  evaluation streams, and the Monte Carlo sample loop of Bayesian
  evaluators folds into the same pass (``mc_forward`` stacks its samples
  whenever a chip batch is active), so one forward carries ``N x S``
  instances for ``N`` cells and replaces ``N x S`` Python-dispatched
  ones.  The evaluator must be *chip-aware* (everything built by
  :func:`repro.eval.evaluators.make_evaluator` is): under an active chip
  batch it returns a per-instance metric vector instead of a float.
* :func:`evaluate_cell` is the per-cell loop body and the oracle every
  stacked pass is pinned against.  Cells no pass can carry run through
  it: fault-free cells, and every cell when one cell's stack does not
  fit the budget.

:class:`EngineConfig` holds the engine's one knob, ``max_batch_bytes``.
The evaluator states what one cell puts through the model: how many
forwards it makes and the bytes of their largest input (see
:func:`repro.eval.evaluators.make_evaluator`).  From that and the
model's parameter bytes the engine estimates one stacked instance
(:class:`Footprint`), and cuts each run of same-kind faulty cells into
passes of at most :meth:`Footprint.cells_per_pass` cells.  A budget of
0 gives the plain per-cell loop.  The campaign service
(:mod:`repro.serve`) runs this same engine in its daemon.

Determinism
-----------
Results are bit-identical for every budget and scheduling order.  Each
cell derives every random stream it touches from
``SeedSequence(base_seed, spawn_key=(scenario_index, run_index))``:

* the first spawned child seeds the fault-injection RNG handed to
  :class:`~repro.faults.campaign.FaultInjector.attach`;
* the second seeds a generator installed via
  :func:`~repro.tensor.random.scoped_rng` for the duration of the
  evaluation, so dropout masks / affine-dropout noise / activation faults
  drawn through ``get_rng()`` are a pure function of the cell coordinates
  rather than of whatever ran before.

Cell values are written back by submission index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.dropout import resample_masks
from ..nn.module import Module
from ..profiling import count, stage
from ..tensor.chipbatch import ChipBatchRng, chip_batch
from ..tensor.random import scoped_rng
from .models import FaultSpec

Evaluator = Callable[[Module], float]

#: Default :attr:`EngineConfig.max_batch_bytes`.  Sized so a stacked
#: pass stays near the per-cell loop's own working set: the co2 LSTM at
#: ``small`` stacks 2 cells x 6 MC samples, a ``tiny`` co2 sweep stacks
#: all its faulty cells in one pass, the ``tiny`` M5 one cell per pass,
#: and the binarized ResNet-18, whose one cell already needs ~24 MB,
#: runs per cell.
DEFAULT_MAX_BATCH_BYTES = 3 * 2**20

#: Instance-size model behind :class:`Footprint`: every stacked instance
#: holds its own faulty copy of each weight (the per-chip codes repeat
#: along the sample axis, then dequantize), and activations that scale
#: with its forward input.  Fitted to ``tracemalloc`` peaks of stacked
#: passes on the ResNet-18, M5, U-Net and LSTM at their ``tiny``
#: shapes (and the LSTM at ``small``), where it reads 0.8-1.2x.
#: Activation-heavy conv shapes read low (the ``small`` conv nets by
#: 2.5-6x); at the default budget those run per cell anyway.
WEIGHT_COPIES = 3
ACTIVATION_FACTOR = 12


@dataclass(frozen=True)
class EngineConfig:
    """How :func:`run_cells` groups cells into stacked passes.

    ``max_batch_bytes`` bounds the estimated bytes of one stacked pass,
    ``N`` cells x ``S`` forwards per cell x the :class:`Footprint`
    instance estimate.  ``0`` evaluates every cell on its own
    (:func:`evaluate_cell`, the oracle); ``None`` stacks every same-kind
    run of faulty cells in one pass.  No setting changes a value.
    """

    max_batch_bytes: Optional[int] = DEFAULT_MAX_BATCH_BYTES

    def __post_init__(self) -> None:
        if self.max_batch_bytes is not None and self.max_batch_bytes < 0:
            raise ValueError(
                f"max_batch_bytes must be >= 0 or None, got {self.max_batch_bytes}"
            )


#: The per-cell oracle: every cell through :func:`evaluate_cell`.
PER_CELL = EngineConfig(max_batch_bytes=0)


@dataclass(frozen=True)
class Footprint:
    """What one cell puts through the model, as its evaluator states it.

    ``samples`` counts the model forwards one cell makes (MC samples
    times evaluation batches).  A stacked pass carries that many
    instances per cell; a multi-batch evaluator runs its batches one
    after another, so for it the count errs high, the safe side.
    ``instance_bytes`` estimates one stacked instance:
    :data:`WEIGHT_COPIES` x the model's parameter bytes plus
    :data:`ACTIVATION_FACTOR` x the bytes of its largest forward input.
    """

    samples: int
    instance_bytes: int

    def cells_per_pass(self, max_batch_bytes: Optional[int]) -> Optional[int]:
        """The most cells one stacked pass may carry (``None``: no bound).

        Each cell stacks ``samples`` instances; ``0`` when not even one
        cell's stack fits.
        """
        if max_batch_bytes is None:
            return None
        return max_batch_bytes // max(self.samples * self.instance_bytes, 1)

    @classmethod
    def of(cls, model: Module, evaluator: Evaluator) -> "Footprint":
        """The footprint ``evaluator`` declares for one cell on ``model``.

        The evaluator states ``forwards_per_cell`` and ``input_bytes``;
        one that does not raises ``TypeError``, since the engine cannot
        size a stacked pass for it (run it with :data:`PER_CELL`).
        """
        try:
            forwards = evaluator.forwards_per_cell
            input_bytes = evaluator.input_bytes
        except AttributeError:
            raise TypeError(
                f"evaluator {evaluator!r} does not state forwards_per_cell "
                "and input_bytes, which a nonzero engine budget needs to "
                "size its stacked passes (see "
                "repro.eval.evaluators.make_evaluator), or use "
                "engine=PER_CELL"
            ) from None
        params = sum(p.data.nbytes for p in model.parameters())
        return cls(
            samples=max(forwards, 1),
            instance_bytes=WEIGHT_COPIES * params + ACTIVATION_FACTOR * input_bytes,
        )


@dataclass(frozen=True)
class WorkCell:
    """One independent unit of campaign work: a (scenario, chip-run) pair."""

    scenario_index: int
    run_index: int
    spec: FaultSpec


def cell_rngs(
    base_seed: int, scenario_index: int, run_index: int
) -> Tuple[np.random.Generator, np.random.Generator]:
    """Derive the (fault, evaluation) generator pair for one cell.

    Both streams are children of the campaign's canonical
    ``SeedSequence(base_seed, spawn_key=(scenario, run))``, so they depend
    only on the cell coordinates.
    """
    seq = np.random.SeedSequence(
        entropy=base_seed, spawn_key=(scenario_index, run_index)
    )
    fault_seq, eval_seq = seq.spawn(2)
    return np.random.default_rng(fault_seq), np.random.default_rng(eval_seq)


def evaluate_cell(
    model: Module,
    evaluator: Evaluator,
    cell: WorkCell,
    base_seed: int,
) -> float:
    """Evaluate one cell hermetically: attach faults, score, detach.

    All stochasticity (fault patterns, dropout masks, activation noise) is
    scoped to generators derived from the cell coordinates, and frozen
    dropout masks are invalidated first, so the returned value does not
    depend on prior use of ``model``.
    """
    from .campaign import FaultInjector  # local import breaks the cycle

    fault_rng, eval_rng = cell_rngs(base_seed, cell.scenario_index, cell.run_index)
    injector = FaultInjector(model)
    with scoped_rng(eval_rng):
        resample_masks(model)
        with stage("attach"):
            injector.attach(cell.spec, fault_rng)
        try:
            with stage("metric"):
                return float(evaluator(model))
        finally:
            injector.detach()


def evaluate_cells_stacked(
    model: Module,
    evaluator: Evaluator,
    cells: Sequence[WorkCell],
    base_seed: int,
) -> np.ndarray:
    """Evaluate same-kind faulty cells as ONE stacked pass.

    ``cells`` may span scenarios and severities; they share one fault
    kind.  The pass opens one ``chip_batch(len(cells))`` (times
    ``mc_samples`` for Bayesian evaluators).  Per-cell (fault,
    evaluation) streams are derived exactly as :func:`evaluate_cell`
    derives them, each cell's fault hooks are built from its own fault
    stream (:meth:`~repro.faults.campaign.FaultInjector.attach_scenario_batched`),
    and evaluation randomness goes through a
    :class:`~repro.tensor.chipbatch.ChipBatchRng` over the per-cell
    streams — so every slice is bit-identical to a per-cell evaluation of
    that cell.  Returns the metric values aligned with ``cells``.
    """
    from .campaign import FaultInjector  # local import breaks the cycle

    if not cells:
        return np.empty(0)
    rngs = [cell_rngs(base_seed, c.scenario_index, c.run_index) for c in cells]
    injector = FaultInjector(model)
    with chip_batch(len(cells)), scoped_rng(ChipBatchRng([ev for _, ev in rngs])):
        resample_masks(model)
        with stage("attach"):
            injector.attach_scenario_batched(
                [cell.spec for cell in cells], [fault for fault, _ in rngs]
            )
        try:
            with stage("metric"):
                values = np.asarray(evaluator(model), dtype=np.float64)
        finally:
            injector.detach()
    if values.shape != (len(cells),):
        raise RuntimeError(
            f"chip-aware evaluator returned shape {values.shape} for "
            f"{len(cells)} stacked instances; a stacked pass needs a "
            "per-instance metric vector (see "
            "repro.eval.evaluators.make_evaluator)"
        )
    return values


def _scenario_groups(cells: Sequence[WorkCell]) -> List[Tuple[int, int]]:
    """Split ``cells`` into maximal runs of same-scenario cells."""
    groups: List[Tuple[int, int]] = []
    start = 0
    for i in range(1, len(cells)):
        if cells[i].scenario_index != cells[start].scenario_index:
            groups.append((start, i))
            start = i
    if start < len(cells):
        groups.append((start, len(cells)))
    return groups


def _kind_groups(cells: Sequence[WorkCell]) -> List[List[Tuple[int, int]]]:
    """Coalesce consecutive same-kind scenario ranges of ``cells``.

    Returns a list of kind groups, each a list of ``(start, stop)``
    scenario ranges.  Consecutive faulty ranges of one fault kind merge,
    whatever their chip counts; a fault-free range is a group of its own.
    """
    groups: List[List[Tuple[int, int]]] = []
    for first, stop in _scenario_groups(cells):
        spec = cells[first].spec
        if groups and not spec.is_fault_free:
            prev = cells[groups[-1][-1][0]].spec
            if not prev.is_fault_free and prev.kind == spec.kind:
                groups[-1].append((first, stop))
                continue
        groups.append([(first, stop)])
    return groups


def run_cells(
    cells: Sequence[WorkCell],
    base_seed: int,
    *,
    model: Module,
    evaluator: Evaluator,
    engine: EngineConfig = EngineConfig(),
    on_cell_done: Optional[Callable[[int, int], None]] = None,
) -> np.ndarray:
    """Execute a flat cell grid and return values aligned with ``cells``.

    Each run of consecutive same-kind faulty cells is cut into stacked
    passes of at most :meth:`Footprint.cells_per_pass` cells, across
    scenario boundaries (see :class:`EngineConfig`); fault-free cells,
    and every cell when not even one fits the budget, run per cell.
    ``model``/``evaluator`` are the deployed network and its
    (chip-aware) metric; under a nonzero budget the evaluator must state
    its :class:`Footprint` (:meth:`Footprint.of`).
    ``on_cell_done(done, total)`` fires after every per-cell cell and
    every stacked pass.

    Under :func:`~repro.profiling.profiled` the engine counts its stacked
    passes (``engine.passes``), the instances they carried
    (``engine.instances``) and every per-cell cell by reason
    (``engine.per-cell.<reason>``: ``fault-free`` or ``over-budget``).
    """
    total = len(cells)
    values = np.empty(total)
    done = 0

    def report(n: int) -> None:
        nonlocal done
        done += n
        if on_cell_done is not None:
            on_cell_done(done, total)

    budget = engine.max_batch_bytes
    footprint = Footprint.of(model, evaluator) if budget != 0 else None
    limit = 0 if footprint is None else footprint.cells_per_pass(budget)
    if limit is None:  # unbounded: one pass per kind group
        limit = total

    for ranges in _kind_groups(cells):
        group = [i for start, stop in ranges for i in range(start, stop)]
        fault_free = cells[ranges[0][0]].spec.is_fault_free
        if fault_free or limit == 0:
            reason = "fault-free" if fault_free else "over-budget"
            for index in group:
                values[index] = evaluate_cell(
                    model, evaluator, cells[index], base_seed
                )
                count("engine.per-cell." + reason)
                report(1)
            continue
        for first in range(0, len(group), limit):
            chunk = group[first : first + limit]
            values[chunk] = evaluate_cells_stacked(
                model, evaluator, [cells[i] for i in chunk], base_seed
            )
            count("engine.passes")
            count("engine.instances", len(chunk) * footprint.samples)
            report(len(chunk))
    return values
