"""Fault-injection orchestration and Monte Carlo campaigns.

:class:`FaultInjector` wires a :class:`~repro.faults.models.FaultSpec` into
a model: every :class:`~repro.quant.layers.QuantizedComputeLayer` gets a
dedicated, independently-seeded weight-fault model, and — for conductance
*variation* on binary networks — every
:class:`~repro.quant.layers.SignActivation` gets an activation-noise hook
(the paper injects variation into normalized activations before the
``Sign``, Section IV-A-2).

:class:`MonteCarloCampaign` repeats an evaluation over ``n_runs`` simulated
chip instances (the paper uses 100) with independent fault realizations and
reports mean and standard deviation — the shaded bands of Figs. 5 and 6.

The campaign itself is a thin *scheduler*: it flattens the (scenario ×
chip-run) grid into :class:`~repro.faults.executor.WorkCell` units and
hands them to :func:`~repro.faults.executor.run_cells`, which evaluates
them in byte-budgeted stacked passes (see
:class:`~repro.faults.executor.EngineConfig`).  Every cell derives all
of its randomness from ``SeedSequence(base_seed, spawn_key=(scenario,
run))`` and evaluates under a scoped generator, so campaign results are
bit-identical for every budget and scheduling order.
:meth:`MonteCarloCampaign.sweep` submits *all* scenarios' cells as one
grid, so the engine can vectorize each scenario's chips — and several
severity levels of the same fault kind at once — into one stacked
forward (:meth:`FaultInjector.attach_scenario_batched`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..nn.module import Module
from ..quant.layers import QuantLSTMCell, QuantizedComputeLayer, SignActivation
from .executor import EngineConfig, WorkCell, run_cells
from .models import (
    ChipBatchedActivationNoise,
    FaultSpec,
    ScenarioBatchedWeightFault,
)


class FaultInjector:
    """Attach / detach fault hooks on a model for one chip instance."""

    def __init__(self, model: Module):
        self.model = model

    def _weight_sites(self) -> List[QuantizedComputeLayer]:
        return [
            m for m in self.model.modules() if isinstance(m, QuantizedComputeLayer)
        ]

    def _activation_sites(self) -> List[SignActivation]:
        return [m for m in self.model.modules() if isinstance(m, SignActivation)]

    def _stream_draws(
        self,
        spec: FaultSpec,
        weight_sites: Sequence[QuantizedComputeLayer],
        act_sites: Sequence[SignActivation],
    ) -> int:
        """Scalar seed draws one cell's fault stream makes under ``spec``.

        Mirrors the serial draw order exactly: one draw per weight site
        (made even when the variation routing skips the hook), one extra
        per LSTM cell whose hook *is* installed, and — for variation
        kinds — one per sign-activation site.  Knowing the count up front
        lets both attach flavors draw a whole stream's seeds in a single
        batched ``integers`` call (bit-identical to sequential scalar
        draws, including the generator's end state) instead of one Python
        round-trip per site.
        """
        has_sign_sites = bool(act_sites)
        draws = 0
        for layer in weight_sites:
            draws += 1
            if spec.is_variation and layer.weight_bits == 1 and has_sign_sites:
                continue  # hook skipped: no recurrent-matrix draw either
            if isinstance(layer, QuantLSTMCell):
                draws += 1
        if spec.is_variation:
            draws += len(act_sites)
        return draws

    @staticmethod
    def _draw_seeds(rng: np.random.Generator, n: int) -> List[int]:
        """All of one stream's layer seeds in one batched draw.

        ``rng.integers(0, 2**63, size=n)`` consumes the stream exactly as
        ``n`` sequential scalar draws would (same values, same end state),
        so batching never shifts the seed-stream contract.
        """
        return rng.integers(0, 2**63, size=n).tolist() if n else []

    def attach(self, spec: FaultSpec, rng: np.random.Generator) -> None:
        """Install hooks for ``spec`` using chip-specific randomness.

        Routing follows the paper: conductance variation (additive /
        multiplicative / uniform) targets multi-bit weights directly but is
        injected at the pre-sign activations of binary layers (Section
        IV-A-2); bit flips and stuck-at faults always target the stored
        weight codes.  In networks with binary weights but no sign
        activations (the PACT-activated U-Net), the variation falls back to
        the binary weight codes themselves — the conductance of every
        stored cell varies regardless of the activation function.
        """
        self.detach()
        if spec.kind == "none" or spec.level == 0.0:
            return
        weight_sites = self._weight_sites()
        act_sites = self._activation_sites()
        has_sign_sites = bool(act_sites)
        seeds = iter(
            self._draw_seeds(rng, self._stream_draws(spec, weight_sites, act_sites))
        )
        for layer in weight_sites:
            layer_seed = next(seeds)
            if spec.is_variation and layer.weight_bits == 1 and has_sign_sites:
                continue  # binary layers receive variation at activations
            layer.weight_fault = spec.build_weight_model(
                np.random.default_rng(layer_seed)
            )
            if isinstance(layer, QuantLSTMCell):
                layer.weight_fault_hh = spec.build_weight_model(
                    np.random.default_rng(next(seeds))
                )
        if spec.is_variation:
            for act in act_sites:
                act.pre_fault = spec.build_activation_model(
                    np.random.default_rng(next(seeds))
                )

    def attach_scenario_batched(
        self,
        specs: Sequence[FaultSpec],
        rng_groups: Sequence[Sequence[np.random.Generator]],
    ) -> None:
        """Install stacked hooks for ``K`` severity levels x ``C`` chips.

        The stacked counterpart of :meth:`attach` used by the campaign
        engine's stacked passes (``K = 1`` for a single scenario):
        ``specs[k]`` is scenario ``k``'s fault spec (all the same kind,
        all non-degenerate) and ``rng_groups[k]`` its chips' cell-derived
        fault generators.  Per-layer seeds are drawn from each generator
        in exactly the order :meth:`attach` draws them serially — every
        generator is only ever consumed for its own cell, so stacking
        scenarios changes nothing about any individual stream — and the
        hooks hold one frozen pattern per (scenario, chip), stacked
        scenario-major along the instance axis.
        """
        self.detach()
        if len(specs) != len(rng_groups):
            raise ValueError(
                f"need one rng group per spec, got {len(specs)} specs and "
                f"{len(rng_groups)} groups"
            )
        kinds = {spec.kind for spec in specs}
        if len(kinds) > 1:
            raise ValueError(
                f"scenario batching stacks one fault kind, got {sorted(kinds)}"
            )
        if any(spec.kind == "none" or spec.level == 0.0 for spec in specs):
            raise ValueError(
                "scenario batching needs non-degenerate scenarios "
                "(fault-free cells evaluate serially)"
            )
        weight_sites = self._weight_sites()
        act_sites = self._activation_sites()
        is_variation = specs[0].is_variation
        has_sign_sites = bool(act_sites)
        n_draws = self._stream_draws(specs[0], weight_sites, act_sites)
        # Per-stream batched draws, scenario group structure preserved.
        row_groups = [
            [self._draw_seeds(rng, n_draws) for rng in rngs]
            for rngs in rng_groups
        ]
        cursor = 0
        for layer in weight_sites:
            seed_groups = [
                [row[cursor] for row in rows] for rows in row_groups
            ]
            cursor += 1
            if is_variation and layer.weight_bits == 1 and has_sign_sites:
                continue  # binary layers receive variation at activations
            layer.weight_fault = ScenarioBatchedWeightFault(specs, seed_groups)
            if isinstance(layer, QuantLSTMCell):
                hh_groups = [
                    [row[cursor] for row in rows] for rows in row_groups
                ]
                cursor += 1
                layer.weight_fault_hh = ScenarioBatchedWeightFault(
                    specs, hh_groups
                )
        if is_variation:
            for act in act_sites:
                # ChipBatchedActivationNoise is already per-instance: each
                # (scenario, chip) gets its own serial model carrying that
                # scenario's severity, scenario-major.
                act.pre_fault = ChipBatchedActivationNoise(
                    [
                        spec.build_activation_model(
                            np.random.default_rng(row[cursor])
                        )
                        for spec, rows in zip(specs, row_groups)
                        for row in rows
                    ]
                )
                cursor += 1

    def detach(self) -> None:
        """Remove all fault hooks (restore the ideal chip)."""
        for layer in self._weight_sites():
            layer.weight_fault = None
            if isinstance(layer, QuantLSTMCell):
                layer.weight_fault_hh = None
        for act in self._activation_sites():
            act.pre_fault = None

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()


@dataclass
class CampaignResult:
    """Aggregate of one Monte Carlo fault campaign."""

    spec: FaultSpec
    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std())

    @property
    def n_runs(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return (
            f"CampaignResult({self.spec.describe()}, "
            f"mean={self.mean:.4f}, std={self.std:.4f}, runs={self.n_runs})"
        )


class MonteCarloCampaign:
    """Monte Carlo fault simulation: n chip instances per fault scenario.

    Parameters
    ----------
    model:
        The deployed (trained) network.
    evaluator:
        Callable ``model -> float`` computing the task metric (accuracy,
        mIoU, RMSE ...) on the test set, with fault hooks installed.  It
        must be chip-aware (see :func:`repro.eval.evaluators.make_evaluator`):
        the engine calls it once per stacked pass of chips, and once per
        chip only for cells it runs per cell.  A plain ``model -> float``
        callable needs ``engine=PER_CELL``.
    n_runs:
        Chip instances per scenario (paper: 100).
    base_seed:
        Campaign-level seed; run ``i`` of scenario ``s`` derives its chip
        randomness from ``(base_seed, s, i)`` so campaigns are reproducible
        and scenarios are independent.
    engine:
        How the campaign engine stacks cells into vectorized passes (see
        :class:`~repro.faults.executor.EngineConfig`); every setting gives
        bit-identical results.
    """

    def __init__(
        self,
        model: Module,
        evaluator: Callable[[Module], float],
        n_runs: int = 100,
        base_seed: int = 0,
        engine: EngineConfig = EngineConfig(),
    ):
        self.model = model
        self.evaluator = evaluator
        self.n_runs = n_runs
        self.base_seed = base_seed
        self.engine = engine

    def _cells(self, spec: FaultSpec, scenario_index: int) -> List[WorkCell]:
        """Flatten one scenario into work cells (fault-free → one cell)."""
        n_effective = 1 if spec.kind == "none" or spec.level == 0.0 else self.n_runs
        return [WorkCell(scenario_index, run, spec) for run in range(n_effective)]

    def _execute(
        self,
        cells: Sequence[WorkCell],
        on_cell_done: Optional[Callable[[int, int], None]] = None,
    ) -> np.ndarray:
        return run_cells(
            cells,
            self.base_seed,
            model=self.model,
            evaluator=self.evaluator,
            engine=self.engine,
            on_cell_done=on_cell_done,
        )

    def _package(self, spec: FaultSpec, values: np.ndarray) -> CampaignResult:
        """Broadcast a short-circuited scenario back to ``n_runs`` values."""
        if len(values) < self.n_runs:
            values = np.full(self.n_runs, values[0] if len(values) else np.nan)
        return CampaignResult(spec=spec, values=values[: self.n_runs])

    def run(self, spec: FaultSpec, scenario_index: int = 0) -> CampaignResult:
        """Evaluate one fault scenario over ``n_runs`` chip instances."""
        values = self._execute(self._cells(spec, scenario_index))
        return self._package(spec, values)

    def sweep(
        self,
        specs: Sequence[FaultSpec],
        progress: Optional[Callable[[str], None]] = None,
        scenario_indices: Optional[Sequence[int]] = None,
        on_cell_done: Optional[Callable[[int, int], None]] = None,
    ) -> List[CampaignResult]:
        """Run a list of scenarios (e.g. increasing fault levels).

        All scenarios' cells are submitted as a single flat grid so that
        the engine can stack severity levels into one pass.
        ``scenario_indices`` pins each spec's seed-deriving index (used by
        resumed sweeps where some scenarios were served from cache, so the
        remaining ones must keep their original coordinates).
        """
        if scenario_indices is None:
            scenario_indices = range(len(specs))
        grid: List[WorkCell] = []
        slices: List[slice] = []
        for spec, idx in zip(specs, scenario_indices):
            cells = self._cells(spec, idx)
            slices.append(slice(len(grid), len(grid) + len(cells)))
            grid.extend(cells)
        values = self._execute(grid, on_cell_done=on_cell_done)
        results = []
        for spec, sl in zip(specs, slices):
            result = self._package(spec, values[sl])
            if progress is not None:
                progress(f"{spec.describe()}: {result.mean:.4f} ± {result.std:.4f}")
            results.append(result)
        return results


def bitflip_sweep(levels: Sequence[float]) -> List[FaultSpec]:
    """Fault specs for a bit-flip-rate sweep (Figs. 5/6 left panels)."""
    return [FaultSpec(kind="bitflip" if l > 0 else "none", level=l) for l in levels]


def additive_sweep(sigmas: Sequence[float]) -> List[FaultSpec]:
    """Fault specs for an additive-variation sweep (Figs. 5/6 right panels)."""
    return [FaultSpec(kind="additive" if s > 0 else "none", level=s) for s in sigmas]


def multiplicative_sweep(sigmas: Sequence[float]) -> List[FaultSpec]:
    """Fault specs for a multiplicative-variation sweep (Fig. 6b last panel)."""
    return [
        FaultSpec(kind="multiplicative" if s > 0 else "none", level=s) for s in sigmas
    ]


def uniform_sweep(strengths: Sequence[float]) -> List[FaultSpec]:
    """Fault specs for the LSTM uniform-noise experiment."""
    return [FaultSpec(kind="uniform" if s > 0 else "none", level=s) for s in strengths]
