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

1. :func:`split_sweep` serves completed scenarios from the result
   store, reading each key once, and groups the methods by the network
   they build (:func:`~repro.eval.tasks.network_method`): a scenario is
   pending for a network when none of its methods has it stored;
2. per network with pending scenarios, :meth:`SplitSweep.compute`
   fetches the trained model, binds its chip-aware metric and runs the
   pending scenarios — with their *original* scenario indices, so
   per-cell seeds are unaffected by what was cached — as one
   :class:`~repro.faults.campaign.MonteCarloCampaign` grid, stacked into
   vectorized forwards as far as the engine's byte budget allows;
3. fresh results are written back under every method of the network
   (:meth:`SplitSweep.record`), and :func:`assemble_sweep` builds the
   curves.

The CLI runs step 2 for every pending (network, scenario) of a command
on every usable CPU (:func:`compute_pending`); step 3 stays in its own
process.  The campaign service runs both on a request's connection
thread.  Results are bit-identical for every engine budget, cache state
and worker count.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import CampaignResult, FaultSpec, MonteCarloCampaign
from ..faults.executor import PER_CELL, EngineConfig
from ..models import MethodConfig
from ..profiling import add as add_profile
from ..profiling import count, profiled, stage
from .cache import (
    ResultStore,
    _method_key,
    _model_key,
    campaign_key,
    fork_map,
    fork_workers,
    result_store,
    trained_model,
)
from .evaluators import make_evaluator
from .tasks import Task, mc_runs, mc_samples


@dataclass
class MethodCurve:
    """One method's metric across a fault-level sweep."""

    method: MethodConfig
    levels: np.ndarray
    means: np.ndarray
    stds: np.ndarray

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

    def faulty_improvements(
        self, baseline: str, ours: str = "proposed"
    ) -> np.ndarray:
        """:meth:`improvement_over` at the levels whose spec is not
        fault-free (empty when the sweep has none)."""
        faulty = [not FaultSpec(self.fault_kind, float(level)).is_fault_free
                  for level in self.curves[ours].levels]
        return self.improvement_over(baseline, ours)[np.array(faulty, bool)]


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


@dataclass
class SplitSweep:
    """One sweep's scenarios split against the result store.

    Built by :func:`split_sweep`.  ``values[m]`` maps a scenario index
    to the per-chip values of ``methods[m]`` there: the stored ones, and
    each computed one once :meth:`record` has stored it in ``store``
    (``None``: nowhere).  ``networks`` maps the first method index of
    each distinct network
    (:func:`~repro.eval.tasks.network_method`) to every method index
    that builds it, that one first.  ``pending`` maps such a first index
    to the scenarios none of its network's methods has values for; a
    network with none is absent, and its model is never needed.
    """

    task: Task
    methods: Sequence[MethodConfig]
    specs: Sequence[FaultSpec]
    preset: str
    seed: int
    n_runs: int
    samples: int
    max_eval_samples: Optional[int]
    store: Optional[ResultStore]
    keys: List[List[str]]
    values: List[Dict[int, np.ndarray]]
    pending: Dict[int, List[int]]
    networks: Dict[int, List[int]]

    def cells(self, idx: int) -> int:
        """Work cells of scenario ``idx``: one if fault-free, else ``n_runs``."""
        return 1 if self.specs[idx].is_fault_free else self.n_runs

    def compute(
        self, m: int, indices: Sequence[int],
        engine: EngineConfig = EngineConfig(),
        on_cell_done: Optional[Callable[[int, int], None]] = None,
    ) -> List[np.ndarray]:
        """Per-chip values of ``methods[m]``, and so of its whole
        network, at scenarios ``indices``.

        One :class:`~repro.faults.campaign.MonteCarloCampaign` grid on
        the trained (cached) model and its chip-aware metric, at the
        scenarios' own indices, so each value is the same whichever
        scenarios share the grid.  Reads and writes no store.
        """
        method = self.methods[m]
        evaluator = make_evaluator(
            self.task.name, self.task.test_set, method,
            mc_samples=self.samples, max_samples=self.max_eval_samples,
        )
        campaign = MonteCarloCampaign(
            trained_model(self.task, method, self.preset, seed=self.seed),
            evaluator, n_runs=self.n_runs, base_seed=self.seed, engine=engine,
        )
        results = campaign.sweep(
            [self.specs[i] for i in indices], scenario_indices=indices,
            on_cell_done=on_cell_done,
        )
        return [result.values for result in results]

    def record(self, m: int, idx: int, values: np.ndarray) -> int:
        """Store one computed scenario of network ``m`` under each of its
        methods' keys (written under ``use_cache=False`` too) and keep
        the values for :meth:`assemble`; returns how many of those store
        entries already existed."""
        return sum(not self._keep(k, idx, values, source=m)
                   for k in self.networks[m])

    def _keep(self, k: int, idx: int, values: np.ndarray, source: int) -> bool:
        """Store ``methods[source]``'s values at scenario ``idx`` as
        ``methods[k]``'s, unless ``k`` has values there; ``False`` when
        the store already held the entry.  ``--profile`` counts a ``k``
        other than ``source`` as ``shared.<k> = <source>`` cells."""
        if idx in self.values[k]:
            return True
        stored = True
        if self.store is not None:
            with stage("store"):
                stored = self.store.put(self.keys[k][idx], values)
        self.values[k][idx] = values
        if k != source:
            count(f"shared.{self.methods[k].name} = "
                  f"{self.methods[source].name}", self.cells(idx))
        return stored

    def assemble(self, progress=None) -> RobustnessSweep:
        """The sweep's curves once every scenario has values;
        ``progress(line)`` sees one line per (method, scenario)."""
        values = {
            method.name: [self.values[m][i] for i in range(len(self.specs))]
            for m, method in enumerate(self.methods)
        }
        if progress is not None:
            for method in self.methods:
                for spec, v in zip(self.specs, values[method.name]):
                    progress(
                        f"[{self.task.name}/{method.name}] {spec.describe()}: "
                        f"{v.mean():.4f} ± {v.std():.4f}"
                    )
        return assemble_sweep(
            self.task.name, self.task.metric_name, self.task.higher_is_better,
            self.methods, self.specs, values,
        )


def split_sweep(
    task: Task,
    methods: Sequence[MethodConfig],
    specs: Sequence[FaultSpec],
    preset: str = "small",
    seed: int = 0,
    n_runs: Optional[int] = None,
    samples: Optional[int] = None,
    max_eval_samples: Optional[int] = -1,
    use_cache: bool = True,
    store: Optional[ResultStore] = result_store(),
) -> SplitSweep:
    """Read each (method, scenario) of a sweep from ``store`` once.

    Settings as :func:`campaign_settings` resolves them.  ``store`` is
    the process-wide :func:`~repro.eval.cache.result_store` by default;
    the sweep reads it unless ``use_cache=False``, and
    :meth:`~SplitSweep.record` writes it either way.  ``store=None``
    reads and writes nothing, so every scenario is pending.  An entry
    serves only when it holds ``n_runs`` values.  A method the store
    cannot serve at a scenario takes, and stores, the entry another
    method of its network has there.  The curves are keyed by method
    name, so two methods of one name raise ``ValueError``.
    """
    named: Dict[str, MethodConfig] = {}
    for method in methods:
        if method.name in named:
            raise ValueError(
                f"methods {_method_key(named[method.name])} and "
                f"{_method_key(method)} share the name {method.name!r}; a "
                "sweep keys its curves by name"
            )
        named[method.name] = method
    n_runs, samples, max_eval_samples = campaign_settings(
        preset, n_runs, samples, max_eval_samples
    )
    keys, values, networks = [], [], {}
    for m, method in enumerate(methods):
        keys.append([
            campaign_key(task, method, spec, n_runs, samples, seed,
                         max_eval_samples)
            for spec in specs
        ])
        values.append({})
        if store is not None and use_cache:
            for idx, key in enumerate(keys[-1]):
                with stage("store"):
                    stored = store.get(key)
                if stored is not None and len(stored) == n_runs:
                    values[-1][idx] = stored
        network = _model_key(task, method, preset, seed)
        networks.setdefault(network, []).append(m)
    work = SplitSweep(
        task, methods, specs, preset, seed, n_runs, samples, max_eval_samples,
        store, keys, values, {},
        {group[0]: group for group in networks.values()},
    )
    for m, group in work.networks.items():
        todo = []
        for idx in range(len(specs)):
            source = next((k for k in group if idx in values[k]), None)
            if source is None:
                todo.append(idx)
                continue
            for k in group:
                work._keep(k, idx, values[source][idx], source)
        if todo:
            work.pending[m] = todo
    return work


def compute_pending(
    works: Sequence[SplitSweep],
    on_cell_done: Optional[Callable[[int, int], None]] = None,
) -> None:
    """Compute and :meth:`~SplitSweep.record` every pending scenario of
    ``works`` on every usable CPU.

    The CLI's compute step; it needs every pending network's model
    trained first (:func:`~repro.eval.cache.train_models`), since a
    worker loads it with :func:`~repro.eval.cache.trained_model`.  One
    :func:`~repro.eval.cache.fork_map` job per pending (network,
    scenario), whose values :meth:`~SplitSweep.record` stores under the
    key of every method of the network, handed out longest first by
    cells × forwards per cell (``samples`` for a Bayesian method, else
    one).  Workers only compute: this process records every value, so
    the store has one writer, and adds each job's ``--profile`` totals
    (:func:`repro.profiling.add`), so they depend on the command and
    not on which worker ran what.  ``on_cell_done(done, total)`` sees
    ``done=0`` as the pool starts, then the running cell count as each
    job finishes; a network's cells count once per method.

    When :func:`~repro.eval.cache.fork_workers` starts no process, each
    network's pending scenarios run here as one job, one grid as
    :func:`run_robustness_sweep` runs them, and ``on_cell_done`` sees
    every computed cell, then the shared ones as the job ends.
    """
    scenarios = [(w, m, i) for w, work in enumerate(works)
                 for m, indices in work.pending.items() for i in indices]

    def cells(w: int, m: int, indices: Sequence[int]) -> int:
        work = works[w]
        return len(work.networks[m]) * sum(work.cells(i) for i in indices)

    total = sum(cells(w, m, [i]) for w, m, i in scenarios)
    in_process = not fork_workers(len(scenarios))
    if in_process:
        jobs = [(w, m, indices) for w, work in enumerate(works)
                for m, indices in work.pending.items()]
    else:
        def forwards(job) -> int:
            w, m, (i,) = job
            work = works[w]
            per_cell = work.samples if work.methods[m].is_bayesian else 1
            return work.cells(i) * per_cell

        jobs = sorted(((w, m, [i]) for w, m, i in scenarios), key=forwards,
                      reverse=True)
    done = reported = 0

    def report(n: int) -> None:
        nonlocal reported
        if on_cell_done is not None and n > reported:
            reported = n
            on_cell_done(n, total)

    per_cell = None
    if in_process and on_cell_done is not None:
        def per_cell(job_done: int, _job_total: int) -> None:
            report(done + job_done)

    def run(job):
        w, m, indices = job
        with profiled() as stages:
            values = works[w].compute(m, indices, on_cell_done=per_cell)
        return values, stages

    def finished(index: int, result) -> None:
        nonlocal done
        w, m, indices = jobs[index]
        values, stages = result
        add_profile(stages)
        for idx, v in zip(indices, values):
            works[w].record(m, idx, v)
        done += cells(w, m, indices)
        report(done)

    if on_cell_done is not None and not in_process:
        on_cell_done(0, total)  # starts a throughput clock with the pool
    fork_map(run, jobs, finished)


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
    """Train/fetch each network's model and sweep the fault levels.

    Returns mean ± std of the task metric per method per level — the data
    behind one panel of Fig. 5 or Fig. 6 (settings: :func:`campaign_settings`).

    ``engine`` sizes the engine's stacked passes (every budget gives
    bit-identical values); ``executor="serial"`` is the older spelling of
    ``engine=PER_CELL``, the per-cell oracle.  ``use_cache=False``
    bypasses the campaign-result cache (it is still written);
    ``on_cell_done(done, total)`` observes per-network cell completion
    for throughput reporting.  Everything runs in this process, one
    network at a time (:func:`split_sweep`), each computed once for all
    of its methods.
    """
    if executor is not None:
        if executor != "serial":
            raise ValueError(
                f"executor={executor!r} is gone; pass engine=EngineConfig(...)"
            )
        engine = PER_CELL
    work = split_sweep(
        task, methods, specs, preset=preset, seed=seed, n_runs=n_runs,
        samples=samples, max_eval_samples=max_eval_samples,
        use_cache=use_cache,
    )
    for m, pending in work.pending.items():
        fresh = work.compute(m, pending, engine=engine, on_cell_done=on_cell_done)
        for idx, values in zip(pending, fresh):
            work.record(m, idx, values)
    return work.assemble(progress)


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
    return clean_metrics(run_robustness_sweep(
        task, methods, preset=preset, seed=seed, samples=samples,
        use_cache=use_cache, **BASELINE_SWEEP,
    ))


def clean_metrics(sweep: RobustnessSweep) -> Dict[str, float]:
    """Each method's metric at the sweep's first (fault-free) level."""
    return {name: curve.clean for name, curve in sweep.curves.items()}
