"""Execution engine for Monte Carlo fault campaigns.

A fault campaign is an embarrassingly parallel grid: every
(scenario, chip-run) pair — a :class:`WorkCell` — is an independent
evaluation of the model under one frozen fault realization.
:func:`run_cells` evaluates that grid in *stacked passes*:

* :func:`evaluate_cells_scenario_batched` stacks ``K`` same-kind
  severity levels x ``C`` chips along a leading instance axis and runs
  ONE vectorized forward.  Fault patterns are generated per cell from
  the cell's own stream and stacked
  (:meth:`~repro.faults.campaign.FaultInjector.attach_scenario_batched`),
  evaluation randomness goes through a
  :class:`~repro.tensor.chipbatch.ChipBatchRng` over the per-cell
  evaluation streams, and the Monte Carlo sample loop of Bayesian
  evaluators folds into the same pass (``mc_forward`` stacks its samples
  whenever a chip batch is active), so one forward carries
  ``K x C x S`` instances and replaces ``K x C x S`` Python-dispatched
  ones.  The evaluator must be *chip-aware* (everything built by
  :func:`repro.eval.evaluators.make_evaluator` is): under an active chip
  batch it returns a per-instance metric vector instead of a float.
* :func:`evaluate_cell` is the per-cell loop body and the oracle every
  stacked pass is pinned against.  Cells no pass can carry run through
  it: fault-free scenarios (nothing introduces the chip axis),
  single-chip scenarios, and every cell when one chip's stack does not
  fit the budget.

:class:`EngineConfig` holds the engine's one knob, ``max_batch_bytes``.
The engine learns a :class:`Footprint` from the first cell it evaluates
for a ``(model, evaluator)`` pair, which it runs per cell: how many
forwards one cell makes and the bytes of their input.  From that and the model's parameter bytes it
estimates one stacked instance, and picks ``K x C`` so that
``K·C·S·bytes`` stays within the budget.  A budget of 0 gives the plain
per-cell loop.  Multi-worker execution lives in the campaign service
(:mod:`repro.serve`), which runs this engine per shard worker.

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

import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.dropout import resample_masks
from ..nn.module import Module
from ..profiling import count, stage
from ..tensor.chipbatch import ChipBatchRng, chip_batch, scenario_axis
from ..tensor.random import scoped_rng
from .models import FaultSpec

Evaluator = Callable[[Module], float]

#: Default :attr:`EngineConfig.max_batch_bytes`.  Sized so a stacked
#: pass stays near the per-cell loop's own working set: the co2 LSTM at
#: ``small`` stacks 2 chips x 6 MC samples, ``tiny`` co2 sweeps stack
#: whole scenarios, the ``tiny`` M5 one chip per pass, and the binarized
#: ResNet-18, whose one chip already needs ~24 MB, runs per cell.
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
    ``K`` scenarios x ``C`` chips x ``S`` forwards per cell x the
    :class:`Footprint` instance estimate.  ``0`` evaluates every cell on
    its own (:func:`evaluate_cell`, the oracle); ``None`` stacks every
    same-kind run of scenarios in one pass.  No setting changes a value.
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
    """What one cell puts through the model, learned from a per-cell run.

    ``samples`` counts the model forwards one cell makes (MC samples
    times evaluation batches).  A stacked pass carries that many
    instances per chip; a multi-batch evaluator runs its batches one
    after another, so for it the count errs high, the safe side.
    ``instance_bytes`` estimates one stacked instance:
    :data:`WEIGHT_COPIES` x the model's parameter bytes plus
    :data:`ACTIVATION_FACTOR` x the bytes of its largest forward input.
    """

    samples: int
    instance_bytes: int

    def pass_shape(
        self, n_scenarios: int, n_chips: int, max_batch_bytes: Optional[int]
    ) -> Optional[Tuple[int, int]]:
        """The ``(K, C)`` of a pass over a ``n_scenarios x n_chips`` group.

        The most chips per scenario that fit, then — once a whole
        scenario fits — the most scenarios.  ``None`` when not even one
        chip's ``samples``-instance stack fits.
        """
        if max_batch_bytes is None:
            return n_scenarios, n_chips
        chip_bytes = max(self.samples * self.instance_bytes, 1)
        chips = min(n_chips, max_batch_bytes // chip_bytes)
        if chips < 1:
            return None
        if chips < n_chips:
            return 1, chips
        scenarios = max_batch_bytes // (n_chips * chip_bytes)
        return min(n_scenarios, scenarios), chips


# Footprints already learned, per model, for the evaluator they were
# learned with: a long-lived model (a service replica) pays the per-cell
# sizing run once.
_FOOTPRINTS: "weakref.WeakKeyDictionary[Module, Tuple[Evaluator, Footprint]]" = (
    weakref.WeakKeyDictionary()
)


def learned_footprint(model: Module, evaluator: Evaluator) -> Optional[Footprint]:
    """The footprint a run of ``evaluator`` on ``model`` taught the engine."""
    entry = _FOOTPRINTS.get(model)
    return entry[1] if entry is not None and entry[0] is evaluator else None


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


def _sizing_cell(
    model: Module, evaluator: Evaluator, cell: WorkCell, base_seed: int
) -> float:
    """:func:`evaluate_cell` that also learns the :class:`Footprint`.

    The root module's ``forward`` is wrapped on this model instance only,
    for this one cell, so other models (and other threads' replicas) are
    untouched and no later forward pays for it.
    """
    inputs: List[int] = []
    forward = model.forward

    def sized_forward(x, *args, **kwargs):
        inputs.append(np.asarray(getattr(x, "data", x)).nbytes)
        return forward(x, *args, **kwargs)

    model.forward = sized_forward
    try:
        value = evaluate_cell(model, evaluator, cell, base_seed)
    finally:
        del model.forward
    params = sum(p.data.nbytes for p in model.parameters())
    _FOOTPRINTS[model] = (evaluator, Footprint(
        samples=max(len(inputs), 1),
        instance_bytes=WEIGHT_COPIES * params
        + ACTIVATION_FACTOR * max(inputs, default=0),
    ))
    return value


def evaluate_cells_scenario_batched(
    model: Module,
    evaluator: Evaluator,
    cell_groups: Sequence[Sequence[WorkCell]],
    base_seed: int,
) -> np.ndarray:
    """Evaluate several scenarios' chip instances as ONE stacked pass.

    ``cell_groups[k]`` holds scenario ``k``'s cells (one spec per group,
    every group the same fault kind and the same chip count), and the
    stacked pass carries a scenario-major instance axis of
    ``n_scenarios * n_chips`` (times ``mc_samples`` for Bayesian
    evaluators).  Per-cell (fault, evaluation) streams are derived
    exactly as :func:`evaluate_cell` derives them, fault patterns are
    generated per (scenario, chip) from each cell's own fault stream
    (:meth:`~repro.faults.campaign.FaultInjector.attach_scenario_batched`,
    heterogeneous severities stacked by
    :class:`~repro.faults.models.ScenarioBatchedWeightFault`), and
    evaluation randomness goes through a
    :class:`~repro.tensor.chipbatch.ChipBatchRng` over the flattened
    per-cell streams — so every (scenario, chip) slice is bit-identical to
    a serial evaluation of that cell.

    Returns the metric values flattened scenario-major, aligned with
    ``[cell for group in cell_groups for cell in group]``.
    """
    from .campaign import FaultInjector  # local import breaks the cycle

    if not cell_groups:
        return np.empty(0)
    chip_counts = {len(group) for group in cell_groups}
    if 0 in chip_counts:
        raise ValueError("scenario batching needs non-empty scenario groups")
    if len(chip_counts) > 1:
        raise ValueError(
            "scenario batching needs the same chip count per scenario, got "
            f"{sorted(chip_counts)}"
        )
    specs: List[FaultSpec] = []
    for group in cell_groups:
        spec = group[0].spec
        scenario = group[0].scenario_index
        for cell in group:
            if cell.spec is not spec and cell.spec != spec:
                raise ValueError(
                    "each scenario group needs a single-scenario cell list"
                )
            if cell.scenario_index != scenario:
                raise ValueError(
                    "each scenario group needs a single-scenario cell list"
                )
        specs.append(spec)
    fault_rng_groups: List[List[np.random.Generator]] = []
    eval_rngs: List[np.random.Generator] = []
    for group in cell_groups:
        pairs = [
            cell_rngs(base_seed, cell.scenario_index, cell.run_index)
            for cell in group
        ]
        fault_rng_groups.append([fault for fault, _ in pairs])
        eval_rngs.extend(ev for _, ev in pairs)
    n_scenarios = len(cell_groups)
    n_chips = len(cell_groups[0])
    injector = FaultInjector(model)
    with scenario_axis(n_scenarios), chip_batch(n_chips), scoped_rng(
        ChipBatchRng(eval_rngs)
    ):
        resample_masks(model)
        with stage("attach"):
            injector.attach_scenario_batched(specs, fault_rng_groups)
        try:
            with stage("metric"):
                values = np.asarray(evaluator(model), dtype=np.float64)
        finally:
            injector.detach()
    if values.shape != (len(eval_rngs),):
        raise RuntimeError(
            f"chip-aware evaluator returned shape {values.shape} for "
            f"{len(eval_rngs)} stacked instances; the scenario-batched "
            "backend needs a per-instance metric vector (see "
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


def _per_cell_reason(
    cells: Sequence[WorkCell], start: int, stop: int
) -> Optional[str]:
    """Why a scenario range cannot join a stacked pass (``None``: it can)."""
    spec = cells[start].spec
    if spec.kind == "none" or spec.level == 0.0:
        return "fault-free"
    if stop - start == 1:
        return "single-chip"
    return None


def _sizing_index(cells: Sequence[WorkCell]) -> int:
    """The cell the engine learns a new :class:`Footprint` on.

    The first cell that runs per cell anyway (a sweep's fault-free cell),
    so its sizing run is its real run; otherwise the first cell, which
    then runs once more inside its stacked pass so its scenario keeps the
    chip count the scenario axis needs.
    """
    for start, stop in _scenario_groups(cells):
        if _per_cell_reason(cells, start, stop) is not None:
            return start
    return 0


def _kind_groups(cells: Sequence[WorkCell]) -> List[List[Tuple[int, int]]]:
    """Coalesce consecutive same-kind scenario ranges of ``cells``.

    Returns a list of kind groups, each a list of ``(start, stop)``
    scenario ranges.  Ranges merge only when every member is stackable
    (multi-chip, non-degenerate spec), shares the fault kind, and has the
    same chip count — the rectangular layout the scenario axis requires.
    Unstackable ranges come back as singleton groups and run per cell.
    """
    groups: List[List[Tuple[int, int]]] = []
    for first, stop in _scenario_groups(cells):
        if groups and _per_cell_reason(cells, first, stop) is None:
            prev_start, prev_stop = groups[-1][-1]
            if (
                _per_cell_reason(cells, prev_start, prev_stop) is None
                and cells[prev_start].spec.kind == cells[first].spec.kind
                and prev_stop - prev_start == stop - first
            ):
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

    Each run of consecutive same-kind scenarios is cut into stacked
    passes of ``K`` scenarios x ``C`` chips sized by ``engine`` (see
    :class:`EngineConfig`); cells no pass can carry run per cell.  When
    the engine has not yet sized this ``(model, evaluator)`` pair, one
    cell first runs per cell to learn its :class:`Footprint` (see
    :func:`_sizing_index`).
    ``model``/``evaluator`` are the deployed network and its
    (chip-aware) metric.  ``on_cell_done(done, total)`` fires after every
    per-cell cell and every stacked pass.

    Under :func:`~repro.profiling.profiled` the engine counts its stacked
    passes (``engine.passes``), the instances they carried
    (``engine.instances``) and every per-cell cell by reason
    (``engine.per-cell.<reason>``: ``fault-free``, ``single-chip``,
    ``over-budget``, or ``sizing`` for a footprint run whose cell ran
    again in a stacked pass).
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
    footprint = None
    sized = None  # (index, value) of the sizing run, until a per-cell use
    if budget != 0 and total:
        footprint = learned_footprint(model, evaluator)
        if footprint is None:
            index = _sizing_index(cells)
            sized = index, _sizing_cell(model, evaluator, cells[index], base_seed)
            footprint = learned_footprint(model, evaluator)

    for ranges in _kind_groups(cells):
        start, stop = ranges[0]
        n_chips = stop - start
        reason = _per_cell_reason(cells, start, stop)
        shape = None
        if reason is None and footprint is not None:
            shape = footprint.pass_shape(len(ranges), n_chips, budget)
        if shape is None:
            reason = reason or "over-budget"
            for range_start, range_stop in ranges:
                for index in range(range_start, range_stop):
                    if sized is not None and sized[0] == index:
                        values[index] = sized[1]
                        sized = None
                    else:
                        values[index] = evaluate_cell(
                            model, evaluator, cells[index], base_seed
                        )
                    count("engine.per-cell." + reason)
                    report(1)
            continue
        scen_step, chip_step = shape
        for scen_sub in range(0, len(ranges), scen_step):
            sub_ranges = ranges[scen_sub : scen_sub + scen_step]
            for chip_sub in range(0, n_chips, chip_step):
                chip_stop = min(chip_sub + chip_step, n_chips)
                groups = [
                    cells[first_cell + chip_sub : first_cell + chip_stop]
                    for first_cell, _ in sub_ranges
                ]
                stacked = evaluate_cells_scenario_batched(
                    model, evaluator, groups, base_seed
                )
                width = chip_stop - chip_sub
                for g, (first_cell, _) in enumerate(sub_ranges):
                    values[first_cell + chip_sub : first_cell + chip_stop] = (
                        stacked[g * width : (g + 1) * width]
                    )
                count("engine.passes")
                count("engine.instances", len(stacked) * footprint.samples)
                report(width * len(sub_ranges))
    if sized is not None:  # the sized cell ran again in its stacked pass
        count("engine.per-cell.sizing")
    return values
