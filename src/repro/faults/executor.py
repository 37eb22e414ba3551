"""Execution engine for Monte Carlo fault campaigns.

A fault campaign is an embarrassingly parallel grid: every
(scenario, chip-run) pair — a :class:`WorkCell` — is an independent
evaluation of the model under one frozen fault realization.  This module
flattens that grid and executes it on one of two backends:

* ``"serial"`` — the reference implementation (the oracle every other
  path is pinned against), a plain loop of :func:`evaluate_cell`;
* ``"batched"`` — groups the grid by scenario and evaluates each group's
  chips as *one* stacked tensor pass: fault patterns are generated per
  chip from the same per-cell streams and stacked along a leading chip
  axis (:meth:`~repro.faults.campaign.FaultInjector.attach_batched`), and
  evaluation randomness is routed through a
  :class:`~repro.tensor.chipbatch.ChipBatchRng` over the per-cell
  evaluation streams.  The Monte Carlo sample loop of Bayesian
  evaluators folds into the same pass (``mc_forward`` stacks its samples
  whenever a chip batch is active), and consecutive same-kind severity
  levels fold into it too, so one forward carries a
  ``scenarios x chips x mc_samples`` instance axis (scenario-major; see
  :func:`evaluate_cells_scenario_batched`).  One vectorized forward
  replaces ``K x C x S`` Python-dispatched ones.
  It requires a *chip-aware* evaluator (everything built by
  :func:`repro.eval.evaluators.make_evaluator` qualifies): under an
  active chip batch the evaluator must return a ``(n_chips,)`` metric
  vector instead of a float.

Multi-worker execution lives in the campaign service
(:mod:`repro.serve`), which runs the ``batched`` backend per shard worker.

Determinism
-----------
Results are bit-identical across backends and scheduling orders.  Each
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
from ..profiling import stage
from ..tensor.chipbatch import ChipBatchRng, chip_batch, scenario_axis
from ..tensor.random import scoped_rng
from .models import FaultSpec

EXECUTORS = ("serial", "batched")

Evaluator = Callable[[Module], float]


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


def evaluate_cells_batched(
    model: Module,
    evaluator: Evaluator,
    cells: Sequence[WorkCell],
    base_seed: int,
) -> np.ndarray:
    """Evaluate one scenario's chip instances as a single stacked pass.

    All ``cells`` must belong to one scenario (same spec and scenario
    index).  Per-cell (fault, evaluation) streams are derived exactly as
    :func:`evaluate_cell` derives them; the fault streams drive
    :meth:`~repro.faults.campaign.FaultInjector.attach_batched` (stacked
    frozen patterns, one per chip) and the evaluation streams back a
    :class:`~repro.tensor.chipbatch.ChipBatchRng`, so chip ``i``'s slice
    of every mask, noise draw, and fault pattern is bit-identical to a
    serial evaluation of ``cells[i]``.  The Monte Carlo sample loop of
    Bayesian evaluators folds into the same stacked pass: one forward
    carries a ``chips x mc_samples`` instance axis (see
    :func:`repro.core.bayesian.mc_forward`).

    ``evaluator`` must be chip-aware: under the active chip batch it
    receives chip-stacked activations and returns a ``(n_chips,)`` metric
    vector (see :func:`repro.eval.evaluators.make_evaluator`).
    """
    from .campaign import FaultInjector  # local import breaks the cycle

    if not cells:
        return np.empty(0)
    spec = cells[0].spec
    scenario = cells[0].scenario_index
    for cell in cells:
        if cell.spec is not spec and cell.spec != spec:
            raise ValueError("batched evaluation needs a single-scenario group")
        if cell.scenario_index != scenario:
            raise ValueError("batched evaluation needs a single-scenario group")
    pairs = [
        cell_rngs(base_seed, cell.scenario_index, cell.run_index) for cell in cells
    ]
    fault_rngs = [fault for fault, _ in pairs]
    eval_rngs = [ev for _, ev in pairs]
    injector = FaultInjector(model)
    with chip_batch(len(cells)), scoped_rng(ChipBatchRng(eval_rngs)):
        resample_masks(model)
        with stage("attach"):
            injector.attach_batched(spec, fault_rngs)
        try:
            with stage("metric"):
                values = np.asarray(evaluator(model), dtype=np.float64)
        finally:
            injector.detach()
    if values.shape != (len(cells),):
        raise RuntimeError(
            f"chip-aware evaluator returned shape {values.shape} for "
            f"{len(cells)} chips; the batched backend needs a per-chip "
            "metric vector (see repro.eval.evaluators.make_evaluator)"
        )
    return values


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
    """Split the grid into maximal runs of consecutive same-scenario cells."""
    groups: List[Tuple[int, int]] = []
    start = 0
    for i in range(1, len(cells)):
        if cells[i].scenario_index != cells[start].scenario_index:
            groups.append((start, i))
            start = i
    if len(cells):
        groups.append((start, len(cells)))
    return groups


def _stackable(cells: Sequence[WorkCell], start: int, stop: int) -> bool:
    """True when a scenario range can join a cross-scenario stacked pass."""
    spec = cells[start].spec
    return stop - start > 1 and spec.kind != "none" and spec.level != 0.0


def _kind_groups(
    cells: Sequence[WorkCell],
) -> List[List[Tuple[int, int]]]:
    """Coalesce consecutive same-kind scenario ranges for cross-scenario
    stacking.

    Returns a list of kind groups, each a list of ``(start, stop)``
    scenario ranges.  Ranges merge only when every member is stackable
    (multi-chip, non-degenerate spec), shares the fault kind, and has the
    same chip count — the rectangular layout the scenario axis requires.
    Unstackable ranges come back as singleton groups and keep the
    per-scenario (or serial fall-back) path.
    """
    groups: List[List[Tuple[int, int]]] = []
    for start, stop in _scenario_groups(cells):
        if groups and _stackable(cells, start, stop):
            prev_start, prev_stop = groups[-1][-1]
            if (
                _stackable(cells, prev_start, prev_stop)
                and cells[prev_start].spec.kind == cells[start].spec.kind
                and prev_stop - prev_start == stop - start
            ):
                groups[-1].append((start, stop))
                continue
        groups.append([(start, stop)])
    return groups


def _run_batched(
    cells: Sequence[WorkCell],
    base_seed: int,
    model: Module,
    evaluator: Evaluator,
    on_cell_done: Optional[Callable[[int, int], None]],
    chip_limit: Optional[int] = None,
    scenario_limit: Optional[int] = None,
) -> np.ndarray:
    """Chip-batched backend: one vectorized pass per (stacked) group.

    Consecutive multi-chip scenarios of the same fault kind stack into
    ONE pass carrying a scenario-major instance axis — a severity sweep
    pays one stacked forward per (task, fault-kind) group instead of one
    per level.  ``scenario_limit`` caps the scenarios stacked per pass and
    ``chip_limit`` the chips per scenario per pass; both only bound the
    working set — every sub-batch derives the same per-cell streams, so
    results never change.  Fault-free scenarios (single-cell groups by
    construction, and faultless in general) fall back to the serial
    reference — with no fault hooks attached nothing introduces the chip
    axis, so there is nothing to vectorize.
    """
    if chip_limit is not None and chip_limit < 1:
        raise ValueError(f"chip_limit must be >= 1, got {chip_limit}")
    if scenario_limit is not None and scenario_limit < 1:
        raise ValueError(f"scenario_limit must be >= 1, got {scenario_limit}")
    total = len(cells)
    values = np.empty(total)
    done = 0

    def _report(n: int) -> None:
        nonlocal done
        done += n
        if on_cell_done is not None:
            on_cell_done(done, total)

    for ranges in _kind_groups(cells):
        start, stop = ranges[0]
        if not _stackable(cells, start, stop):
            for index in range(start, stop):
                values[index] = evaluate_cell(
                    model, evaluator, cells[index], base_seed
                )
            _report(stop - start)
            continue
        n_chips = stop - start
        chip_step = chip_limit if chip_limit else n_chips
        scen_step = scenario_limit if scenario_limit else len(ranges)
        for scen_sub in range(0, len(ranges), scen_step):
            sub_ranges = ranges[scen_sub : scen_sub + scen_step]
            for chip_sub in range(0, n_chips, chip_step):
                chip_stop = min(chip_sub + chip_step, n_chips)
                groups = [
                    cells[first + chip_sub : first + chip_stop]
                    for first, _ in sub_ranges
                ]
                if len(groups) == 1:
                    stacked = evaluate_cells_batched(
                        model, evaluator, groups[0], base_seed
                    )
                else:
                    stacked = evaluate_cells_scenario_batched(
                        model, evaluator, groups, base_seed
                    )
                width = chip_stop - chip_sub
                for g, (first, _) in enumerate(sub_ranges):
                    values[first + chip_sub : first + chip_stop] = stacked[
                        g * width : (g + 1) * width
                    ]
                _report(width * len(sub_ranges))
    return values


def run_cells(
    cells: Sequence[WorkCell],
    base_seed: int,
    *,
    model: Module,
    evaluator: Evaluator,
    executor: str = "serial",
    on_cell_done: Optional[Callable[[int, int], None]] = None,
    chip_limit: Optional[int] = None,
    scenario_limit: Optional[int] = None,
) -> np.ndarray:
    """Execute a flat cell grid and return values aligned with ``cells``.

    Parameters
    ----------
    cells:
        The flattened (scenario, run) grid.
    base_seed:
        Campaign seed from which every cell derives its streams.
    model, evaluator:
        The deployed network and its metric.  ``"batched"`` needs a
        chip-aware ``evaluator``.
    executor:
        One of :data:`EXECUTORS`.  ``"batched"`` evaluates each
        same-kind run of scenarios in one stacked pass.
    on_cell_done:
        Callback ``(done, total)`` fired after each completed cell —
        throughput/ETA reporting hooks onto this.  The batched backend
        fires it once per stacked pass.
    chip_limit:
        ``"batched"`` only: maximum chips stacked per vectorized pass
        (default: a scenario's full chip count).  Smaller caps bound the
        activation working set without changing results.
    scenario_limit:
        ``"batched"`` only: maximum scenarios stacked per pass (default:
        the whole same-kind group).  Smaller caps bound the activation /
        stacked-weight working set without changing results — the
        scenario-axis counterpart of ``chip_limit``.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    total = len(cells)
    if total == 0:
        return np.empty(0)

    if executor == "batched":
        return _run_batched(
            cells, base_seed, model, evaluator, on_cell_done,
            chip_limit=chip_limit, scenario_limit=scenario_limit,
        )
    values = np.empty(total)
    for i, cell in enumerate(cells):
        values[i] = evaluate_cell(model, evaluator, cell, base_seed)
        if on_cell_done is not None:
            on_cell_done(i + 1, total)
    return values
