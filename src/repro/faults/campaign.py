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
grid, so the engine can stack the chips of several same-kind severity
levels into one forward (:meth:`FaultInjector.attach_scenario_batched`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import Module
from ..quant.layers import QuantLSTMCell, QuantizedComputeLayer, SignActivation
from .executor import EngineConfig, WorkCell, run_cells
from .models import ChipBatchedActivationNoise, FaultSpec, StackedWeightFault


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

    def _slots(self, spec: FaultSpec) -> List[Optional[Tuple[Module, str]]]:
        """The ``(site, attribute)`` each of one cell's seed draws programs.

        One entry per draw, in the serial draw order: one per weight site
        (``None`` when the routing skips its hook: the seed is drawn all
        the same), one more for an LSTM cell's recurrent matrix when its
        hook is installed, and — for variation kinds — one per
        sign-activation site.  The routing follows the paper: conductance
        variation (additive / multiplicative / uniform) targets multi-bit
        weights directly but is injected at the pre-sign activations of
        binary layers (Section IV-A-2); bit flips and stuck-at faults
        always target the stored weight codes.  In networks with binary
        weights but no sign activations (the PACT-activated U-Net), the
        variation falls back to the binary weight codes themselves — the
        conductance of every stored cell varies regardless of the
        activation function.
        """
        act_sites = self._activation_sites()
        at_activations = spec.is_variation and bool(act_sites)
        slots: List[Optional[Tuple[Module, str]]] = []
        for layer in self._weight_sites():
            if at_activations and layer.weight_bits == 1:
                slots.append(None)  # binary layers receive variation at activations
                continue
            slots.append((layer, "weight_fault"))
            if isinstance(layer, QuantLSTMCell):
                slots.append((layer, "weight_fault_hh"))
        if spec.is_variation:
            slots.extend((act, "pre_fault") for act in act_sites)
        return slots

    @staticmethod
    def _hooks(
        spec: FaultSpec,
        slots: Sequence[Optional[Tuple[Module, str]]],
        rng: np.random.Generator,
    ) -> list:
        """One cell's hooks, aligned with ``slots`` (``None`` where skipped).

        All of the stream's seeds come from one ``integers(0, 2**63,
        size=n)`` call, which consumes the stream exactly as ``n``
        sequential scalar draws would (same values, same end state).
        """
        seeds = rng.integers(0, 2**63, size=len(slots)).tolist() if slots else []
        hooks = []
        for slot, seed in zip(slots, seeds):
            if slot is None:
                hooks.append(None)
                continue
            build = (
                spec.build_activation_model if slot[1] == "pre_fault"
                else spec.build_weight_model
            )
            hooks.append(build(np.random.default_rng(seed)))
        return hooks

    def attach(self, spec: FaultSpec, rng: np.random.Generator) -> None:
        """Install hooks for ``spec`` using chip-specific randomness.

        :meth:`_slots` sets the routing and the draw order; a fault-free
        spec installs nothing and draws nothing.
        """
        self.detach()
        if spec.is_fault_free:
            return
        slots = self._slots(spec)
        for slot, hook in zip(slots, self._hooks(spec, slots, rng)):
            if slot is not None:
                setattr(*slot, hook)

    def attach_scenario_batched(
        self,
        specs: Sequence[FaultSpec],
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """Install stacked hooks for a pass of cells, one per instance.

        ``specs[i]`` and ``rngs[i]`` are cell ``i``'s fault spec and fault
        generator; the cells may come from any scenarios but share one
        fault kind, and none is fault-free.  Each cell's hooks are the
        ones :meth:`attach` would build from its generator, and every
        site's hooks are stacked in cell order
        (:class:`~repro.faults.models.StackedWeightFault`,
        :class:`~repro.faults.models.ChipBatchedActivationNoise`).
        """
        self.detach()
        if len(specs) != len(rngs):
            raise ValueError(
                f"need one rng per spec, got {len(specs)} specs and "
                f"{len(rngs)} rngs"
            )
        kinds = {spec.kind for spec in specs}
        if len(kinds) > 1:
            raise ValueError(
                f"a stacked pass holds one fault kind, got {sorted(kinds)}"
            )
        if any(spec.is_fault_free for spec in specs):
            raise ValueError(
                "a stacked pass needs non-degenerate cells "
                "(fault-free cells evaluate per cell)"
            )
        if not specs:
            return
        slots = self._slots(specs[0])  # one kind, one routing: one walk per pass
        cells = [self._hooks(spec, slots, rng) for spec, rng in zip(specs, rngs)]
        for i, slot in enumerate(slots):
            if slot is not None:
                hooks = [cell[i] for cell in cells]
                stacked = (
                    ChipBatchedActivationNoise(hooks) if slot[1] == "pre_fault"
                    else StackedWeightFault(hooks)
                )
                setattr(*slot, stacked)

    def detach(self) -> None:
        """Remove all fault hooks (restore the ideal chip), and the
        faulty deploy entries keyed on them
        (:meth:`~repro.quant.layers.QuantizedComputeLayer.detach_faults`)."""
        for layer in self._weight_sites():
            layer.detach_faults()
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

    def run(self, spec: FaultSpec, scenario_index: int = 0) -> CampaignResult:
        """Evaluate one fault scenario over ``n_runs`` chip instances."""
        return self.sweep([spec], scenario_indices=[scenario_index])[0]

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
            cells = scenario_cells(spec, idx, self.n_runs)
            slices.append(slice(len(grid), len(grid) + len(cells)))
            grid.extend(cells)
        values = run_cells(
            grid,
            self.base_seed,
            model=self.model,
            evaluator=self.evaluator,
            engine=self.engine,
            on_cell_done=on_cell_done,
        )
        results = []
        for spec, sl in zip(specs, slices):
            # A fault-free scenario's one value repeats to n_runs values.
            result = CampaignResult(
                spec=spec, values=np.resize(values[sl], self.n_runs)
            )
            if progress is not None:
                progress(f"{spec.describe()}: {result.mean:.4f} ± {result.std:.4f}")
            results.append(result)
        return results


def scenario_cells(
    spec: FaultSpec, scenario_index: int, n_runs: int
) -> List[WorkCell]:
    """One scenario's work cells: ``n_runs`` chips, or one if fault-free.

    Every chip of a fault-free scenario is the ideal chip, so it is
    evaluated once and its value stands for all ``n_runs``.
    """
    n_cells = 1 if spec.is_fault_free else n_runs
    return [WorkCell(scenario_index, run, spec) for run in range(n_cells)]


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
