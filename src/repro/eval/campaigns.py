"""High-level experiment drivers: robustness sweeps over methods.

These produce the data behind Table I and the curves of Figs. 5 and 6:
for each method, train (or fetch the cached) model, then run a Monte Carlo
fault campaign per fault level and collect mean ± std of the task metric.

Execution architecture
----------------------
:func:`run_robustness_sweep` is a thin driver over the campaign engine
(:mod:`repro.faults.executor`); :func:`baseline_metrics` is a one-chip
fault-free sweep, and the campaign service (:mod:`repro.serve`) shares
each step:

1. :func:`split_stored` serves completed scenarios from the result store;
2. per method with pending scenarios, :func:`model_and_evaluator`
   fetches the trained model and binds its chip-aware metric;
3. the pending scenarios — with their *original* scenario indices, so
   per-cell seeds are unaffected by what was cached — run as one
   :class:`~repro.faults.campaign.MonteCarloCampaign` grid, stacked into
   vectorized forwards as far as the engine's byte budget allows;
4. fresh results are written back, and :func:`assemble_sweep` builds
   the curves.

Results are bit-identical for every engine budget and cache state.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import CampaignResult, FaultSpec, MonteCarloCampaign
from ..faults.executor import PER_CELL, EngineConfig, Evaluator
from ..models import MethodConfig
from ..nn.module import Module
from ..profiling import stage
from .cache import ResultStore, campaign_key, result_store, trained_model
from .evaluators import make_evaluator
from .tasks import Task, mc_runs, mc_samples


@dataclass
class MethodCurve:
    """One method's metric across a fault-level sweep."""

    method: MethodConfig
    levels: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def value_at(self, level: float) -> float:
        idx = int(np.argmin(np.abs(self.levels - level)))
        return float(self.means[idx])

    @property
    def clean(self) -> float:
        """Metric at the first (fault-free) level."""
        return float(self.means[0])


@dataclass
class RobustnessSweep:
    """All methods' curves for one (task, fault-kind) experiment."""

    task_name: str
    metric_name: str
    higher_is_better: bool
    fault_kind: str
    curves: Dict[str, MethodCurve] = field(default_factory=dict)

    def improvement_over(
        self, baseline: str, ours: str = "proposed"
    ) -> np.ndarray:
        """Percent improvement of ``ours`` vs ``baseline`` at each level."""
        base = self.curves[baseline].means
        out = self.curves[ours].means
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.higher_is_better:
                rel = 100.0 * (out - base) / np.abs(base)
            else:
                rel = 100.0 * (base - out) / np.abs(base)
        return np.nan_to_num(rel)

    def max_improvement_over(self, baseline: str, ours: str = "proposed") -> float:
        return float(self.improvement_over(baseline, ours).max())


def model_and_evaluator(
    task: Task, method: MethodConfig, preset: str, seed: int, samples: int,
    max_eval_samples: Optional[int],
) -> Tuple[Module, Evaluator]:
    """The trained (cached) model of ``method`` on ``task`` and its
    chip-aware campaign metric."""
    model = trained_model(task, method, preset, seed=seed)
    evaluator = make_evaluator(
        task.name, task.test_set, method, mc_samples=samples,
        max_samples=max_eval_samples,
    )
    return model, evaluator


def campaign_eval_cap(preset: str) -> Optional[int]:
    """Evaluation-set cap for fault campaigns (None = whole test set)."""
    return {"tiny": None, "small": 100, "paper": None}[preset]


def campaign_settings(
    preset: str,
    n_runs: Optional[int] = None,
    samples: Optional[int] = None,
    max_eval_samples: Optional[int] = -1,
) -> Tuple[int, int, Optional[int]]:
    """Resolve ``(n_runs, samples, max_eval_samples)`` for ``preset``.

    ``None`` (``-1`` for the cap) takes the preset's default.  A count
    that is not a positive integer (``bool`` included) raises
    ``ValueError``, and so does a cap that is not ``None``, ``-1`` or a
    positive integer.
    """
    n_runs = mc_runs(preset) if n_runs is None else n_runs
    samples = mc_samples(preset) if samples is None else samples
    for name, value in (("n_runs", n_runs), ("samples", samples)):
        if not _positive_int(value):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if max_eval_samples == -1:
        max_eval_samples = campaign_eval_cap(preset)
    elif max_eval_samples is not None and not _positive_int(max_eval_samples):
        raise ValueError(
            "max_eval_samples must be None, -1 or a positive integer, "
            f"got {max_eval_samples!r}"
        )
    return n_runs, samples, max_eval_samples


def _positive_int(value) -> bool:
    return (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
        and value >= 1
    )


def split_stored(
    keys: Sequence[str], n_runs: int, store: Optional[ResultStore],
    indices: Optional[Iterable[int]] = None,
) -> Tuple[Dict[int, np.ndarray], List[int]]:
    """``({i: stored values}, [pending i])`` over ``indices`` (default: all).

    An entry serves only when it holds ``n_runs`` values; ``store=None``
    reads nothing, so every scenario is pending.
    """
    indices = range(len(keys)) if indices is None else indices
    served: Dict[int, np.ndarray] = {}
    pending: List[int] = []
    for idx in indices:
        values = None
        if store is not None:
            with stage("store"):
                values = store.get(keys[idx])
        if values is not None and len(values) == n_runs:
            served[idx] = values
        else:
            pending.append(idx)
    return served, pending


def _scenario_keys(
    task: Task, method: MethodConfig, specs: Sequence[FaultSpec], n_runs: int,
    samples: int, seed: int, max_eval_samples: Optional[int],
) -> List[str]:
    """One method's result-store key per scenario (:func:`campaign_key`)."""
    return [
        campaign_key(task, method, spec, n_runs, samples, seed, max_eval_samples)
        for spec in specs
    ]


def pending_scenarios(
    task: Task,
    method: MethodConfig,
    specs: Sequence[FaultSpec],
    preset: str = "small",
    seed: int = 0,
    n_runs: Optional[int] = None,
    samples: Optional[int] = None,
    max_eval_samples: Optional[int] = -1,
    use_cache: bool = True,
) -> List[int]:
    """Indices of ``specs`` that :func:`run_robustness_sweep` with these
    arguments would compute for ``method`` rather than serve from the
    result store; empty means the sweep never loads the method's model."""
    n_runs, samples, max_eval_samples = campaign_settings(
        preset, n_runs, samples, max_eval_samples
    )
    keys = _scenario_keys(
        task, method, specs, n_runs, samples, seed, max_eval_samples
    )
    return split_stored(keys, n_runs, result_store() if use_cache else None)[1]


def assemble_sweep(
    task_name: str, metric_name: str, higher_is_better: bool,
    methods: Sequence[MethodConfig], specs: Sequence[FaultSpec],
    values: Dict[str, Sequence[np.ndarray]],
) -> RobustnessSweep:
    """The sweep's curves from ``values[method.name][scenario]``, each
    scenario's per-chip values (mean and std as in ``CampaignResult``)."""
    sweep = RobustnessSweep(
        task_name=task_name,
        metric_name=metric_name,
        higher_is_better=higher_is_better,
        fault_kind=next((s.kind for s in specs if s.kind != "none"), "none"),
    )
    for method in methods:
        results = [
            CampaignResult(spec=spec, values=v)
            for spec, v in zip(specs, values[method.name])
        ]
        sweep.curves[method.name] = MethodCurve(
            method=method,
            levels=np.array([s.level for s in specs]),
            means=np.array([r.mean for r in results]),
            stds=np.array([r.std for r in results]),
        )
    return sweep


def run_robustness_sweep(
    task: Task,
    methods: Sequence[MethodConfig],
    specs: Sequence[FaultSpec],
    preset: str = "small",
    seed: int = 0,
    n_runs: Optional[int] = None,
    samples: Optional[int] = None,
    max_eval_samples: Optional[int] = -1,
    progress=None,
    executor: Optional[str] = None,
    use_cache: bool = True,
    on_cell_done: Optional[Callable[[int, int], None]] = None,
    engine: EngineConfig = EngineConfig(),
) -> RobustnessSweep:
    """Train/fetch each method's model and sweep the fault levels.

    Returns mean ± std of the task metric per method per level — the data
    behind one panel of Fig. 5 or Fig. 6 (settings: :func:`campaign_settings`).

    ``engine`` sizes the engine's stacked passes (every budget gives
    bit-identical values); ``executor="serial"`` is the older spelling of
    ``engine=PER_CELL``, the per-cell oracle.  ``use_cache=False``
    bypasses the campaign-result cache (it is still written);
    ``on_cell_done(done, total)`` observes per-method cell completion for
    throughput reporting.
    """
    if executor is not None:
        if executor != "serial":
            raise ValueError(
                f"executor={executor!r} is gone; pass engine=EngineConfig(...)"
            )
        engine = PER_CELL
    n_runs, samples, max_eval_samples = campaign_settings(
        preset, n_runs, samples, max_eval_samples
    )
    store = result_store()
    values: Dict[str, List[np.ndarray]] = {}
    for method in methods:
        keys = _scenario_keys(
            task, method, specs, n_runs, samples, seed, max_eval_samples
        )
        served, pending = split_stored(keys, n_runs, store if use_cache else None)
        if pending:
            # Model and evaluator are only needed for uncached scenarios;
            # a fully cache-served method skips training/loading entirely.
            model, evaluator = model_and_evaluator(
                task, method, preset, seed, samples, max_eval_samples
            )
            campaign = MonteCarloCampaign(
                model, evaluator, n_runs=n_runs, base_seed=seed, engine=engine
            )
            fresh = campaign.sweep(
                [specs[i] for i in pending], scenario_indices=pending,
                on_cell_done=on_cell_done,
            )
            for idx, result in zip(pending, fresh):
                served[idx] = result.values
                with stage("store"):
                    store.put(keys[idx], result.values)
        values[method.name] = [served[i] for i in range(len(specs))]
        if progress is not None:
            for spec, v in zip(specs, values[method.name]):
                progress(
                    f"[{task.name}/{method.name}] {spec.describe()}: "
                    f"{v.mean():.4f} ± {v.std():.4f}"
                )
    return assemble_sweep(
        task.name, task.metric_name, task.higher_is_better, methods, specs,
        values,
    )


#: The sweep behind a Table I cell: one fault-free chip over the whole
#: test set (:func:`baseline_metrics`).
BASELINE_SWEEP = dict(
    specs=(FaultSpec(kind="none", level=0.0),), n_runs=1, max_eval_samples=None
)


def baseline_metrics(
    task: Task,
    methods: Sequence[MethodConfig],
    preset: str = "small",
    seed: int = 0,
    samples: Optional[int] = None,
    use_cache: bool = True,
) -> Dict[str, float]:
    """Fault-free metric per method (one Table I row).

    A one-chip fault-free :func:`run_robustness_sweep` over the whole
    test set (:data:`BASELINE_SWEEP`), so it shares the engine's hermetic
    per-cell seeding and the campaign-result cache with the robustness
    sweeps.
    """
    sweep = run_robustness_sweep(
        task, methods, preset=preset, seed=seed, samples=samples,
        use_cache=use_cache, **BASELINE_SWEEP,
    )
    return {name: curve.clean for name, curve in sweep.curves.items()}
