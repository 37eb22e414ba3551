"""High-level experiment drivers: robustness sweeps over methods.

These produce the data behind Table I and the curves of Figs. 5 and 6:
for each method, train (or fetch the cached) model, then run a Monte Carlo
fault campaign per fault level and collect mean ± std of the task metric.

Execution architecture
----------------------
:func:`run_robustness_sweep` is a thin driver over the campaign engine
(:mod:`repro.faults.executor`):

1. completed scenarios are served from the campaign-result cache
   (:func:`repro.eval.cache.load_campaign_values`) and skipped;
2. per method with uncached scenarios, the trained model is fetched;
3. the remaining scenarios — with their *original* scenario indices, so
   per-cell seeds are unaffected by what was cached — are flattened into
   one (scenario × chip-run) grid and executed by the engine, which
   stacks chips — and same-kind severity levels — into vectorized
   forwards as far as its byte budget allows (``engine=``; the
   evaluators built here are chip-aware);
4. fresh results are written back to the cache.

Results are bit-identical for every engine budget and cache state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import CampaignResult, FaultSpec, MonteCarloCampaign
from ..faults.executor import PER_CELL, EngineConfig, Evaluator
from ..models import MethodConfig
from ..nn.module import Module
from ..profiling import stage
from .cache import campaign_key, load_campaign_values, store_campaign_values, trained_model
from .evaluators import make_evaluator
from .tasks import Task, build_task, mc_runs, mc_samples


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


@dataclass(frozen=True)
class TaskEvalHandle:
    """Hashable recipe rebuilding a task's (model, evaluator) pair.

    The campaign service keys its warm per-worker replicas on it and
    builds each replica from it.  :meth:`build` re-derives the task
    (datasets are a pure function of ``(task_name, preset, task_seed)``),
    fetches the trained model from the shared cache and rebinds the
    metric evaluator.  ``task_seed`` is the seed the *driver's* task was
    built with (``Task.seed``), which may differ from the campaign
    ``seed``; using the campaign seed here would evaluate a different
    synthesized test set than the in-process path.
    """

    task_name: str
    preset: str
    seed: int
    method: MethodConfig
    samples: int
    max_eval_samples: Optional[int]
    task_seed: int

    def build(self) -> Tuple[Module, Evaluator]:
        task = build_task(self.task_name, preset=self.preset, seed=self.task_seed)
        model = trained_model(task, self.method, self.preset, seed=self.seed)
        evaluator = make_evaluator(
            task.name,
            task.test_set,
            self.method,
            mc_samples=self.samples,
            max_samples=self.max_eval_samples,
        )
        return model, evaluator


def campaign_eval_cap(preset: str) -> Optional[int]:
    """Evaluation-set cap for fault campaigns (None = whole test set)."""
    return {"tiny": None, "small": 100, "paper": None}[preset]


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
    behind one panel of Fig. 5 or Fig. 6.

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
    n_runs = n_runs if n_runs is not None else mc_runs(preset)
    samples = samples if samples is not None else mc_samples(preset)
    if max_eval_samples == -1:
        max_eval_samples = campaign_eval_cap(preset)
    fault_kind = next((s.kind for s in specs if s.kind != "none"), "none")
    sweep = RobustnessSweep(
        task_name=task.name,
        metric_name=task.metric_name,
        higher_is_better=task.higher_is_better,
        fault_kind=fault_kind,
    )
    for method in methods:
        keys = [
            campaign_key(task, method, spec, n_runs, samples, seed, max_eval_samples)
            for spec in specs
        ]
        results: List[Optional[CampaignResult]] = [None] * len(specs)
        pending: List[int] = []
        for idx, (spec, key) in enumerate(zip(specs, keys)):
            if use_cache:
                with stage("store"):
                    values = load_campaign_values(key)
            else:
                values = None
            if values is not None and len(values) == n_runs:
                results[idx] = CampaignResult(spec=spec, values=values)
            else:
                pending.append(idx)
        if pending:
            # Model and evaluator are only needed for uncached scenarios;
            # a fully cache-served method skips training/loading entirely.
            model = trained_model(task, method, preset, seed=seed)
            evaluator = make_evaluator(
                task.name,
                task.test_set,
                method,
                mc_samples=samples,
                max_samples=max_eval_samples,
            )
            campaign = MonteCarloCampaign(
                model,
                evaluator,
                n_runs=n_runs,
                base_seed=seed,
                engine=engine,
            )
            fresh = campaign.sweep(
                [specs[i] for i in pending],
                scenario_indices=pending,
                on_cell_done=on_cell_done,
            )
            for idx, result in zip(pending, fresh):
                results[idx] = result
                with stage("store"):
                    store_campaign_values(keys[idx], result.values)
        if progress is not None:
            for spec, result in zip(specs, results):
                progress(
                    f"[{task.name}/{method.name}] {spec.describe()}: "
                    f"{result.mean:.4f} ± {result.std:.4f}"
                )
        sweep.curves[method.name] = MethodCurve(
            method=method,
            levels=np.array([s.level for s in specs]),
            means=np.array([r.mean for r in results]),
            stds=np.array([r.std for r in results]),
        )
    return sweep


def baseline_metrics(
    task: Task,
    methods: Sequence[MethodConfig],
    preset: str = "small",
    seed: int = 0,
    samples: Optional[int] = None,
    use_cache: bool = True,
) -> Dict[str, float]:
    """Fault-free metric per method (one Table I row).

    Expressed as a single-scenario fault-free campaign per method so it
    shares the engine's hermetic per-cell seeding and the campaign-result
    cache with the robustness sweeps.
    """
    samples = samples if samples is not None else mc_samples(preset)
    clean = FaultSpec(kind="none", level=0.0)
    row = {}
    for method in methods:
        key = campaign_key(task, method, clean, 1, samples, seed, None)
        if use_cache:
            with stage("store"):
                values = load_campaign_values(key)
        else:
            values = None
        if values is None:
            model = trained_model(task, method, preset, seed=seed)
            evaluator = make_evaluator(
                task.name, task.test_set, method, mc_samples=samples
            )
            campaign = MonteCarloCampaign(
                model, evaluator, n_runs=1, base_seed=seed
            )
            values = campaign.run(clean).values
            with stage("store"):
                store_campaign_values(key, values)
        row[method.name] = float(values[0])
    return row
