"""Campaign-engine benchmark: trace-compiled plans vs the PR 4 backend.

Runs one Monte Carlo uniform-noise severity sweep (tiny CO2/LSTM task,
the tiny preset's native ``n_runs=3`` chips and ``mc_samples=4`` Bayesian
passes, 8 severity levels, evaluation capped at 16 windows) in two
configurations of the scenario-batched ``batched`` executor:

* **baseline** — the PR 4 engine: every sweep re-interprets the stacked
  forward (``plan=False``), paying full Python dispatch (``nn.Module``
  chains, ``Tensor`` wrappers, autograd-closure allocation), per-op
  intermediate allocation, and per-attach requantization + fault-pattern
  regeneration;
* **plans** — this PR's engine (``plan=True``, the default): the warmup
  sweep traces the stacked forward once, and every timed sweep *replays*
  the recorded flat numpy kernel sequence — no module dispatch, no
  ``Tensor`` graph, liveness-pooled ``out=`` buffers reused across
  replays, and deployment-frozen weights served as plan constants (the
  repeated sweeps derive identical per-cell fault seeds, so the
  value-keyed plan cache keeps hitting).

The LSTM is the strongest case on one CPU: its per-timestep dispatch
(``2T`` quantize calls plus ~25 tensor ops per step) is exactly what the
replay eliminates.  Per-(scenario, chip) values are asserted
bit-identical, throughput is recorded to ``BENCH_pr5.json`` (see
``docs/benchmarks.md``), and the ≥1.3x assertion is unconditional —
like the earlier engine benchmarks it needs no parallel hardware
(measured ~1.5-1.6x on the 1-CPU reference container).

Run explicitly (benchmarks are excluded from tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_plan_speedup.py -s
"""

import time

import numpy as np
import pytest

from repro.eval import build_task, clear_memory_cache, make_evaluator, trained_model
from repro.faults import MonteCarloCampaign, uniform_sweep
from repro.models import proposed
from repro.tensor import plan as plan_mod

from conftest import print_banner
from recorder import bench_path, record_bench

N_RUNS = 3  # the tiny preset's native chip count (mc_runs("tiny"))
MC_SAMPLES = 4  # the tiny preset's native Bayesian pass count (mc_samples("tiny"))
MAX_EVAL_SAMPLES = 16  # small eval batch: isolates per-op Python overhead
LEVELS = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
REPEATS = 8  # timed sweeps per configuration; min-of-repeats kills noise
MIN_SPEEDUP = 1.3


def _campaign(plan: bool) -> MonteCarloCampaign:
    task = build_task("co2", preset="tiny")
    method = proposed()
    model = trained_model(task, method, "tiny", seed=0)
    evaluator = make_evaluator(
        task.name,
        task.test_set,
        method,
        mc_samples=MC_SAMPLES,
        max_samples=MAX_EVAL_SAMPLES,
    )
    return MonteCarloCampaign(
        model,
        evaluator,
        n_runs=N_RUNS,
        base_seed=0,
        executor="batched",
        plan=plan,
    )


@pytest.mark.paper_artifact("campaign-engine")
def test_plan_replay_sweep_speedup():
    print_banner(
        f"Campaign engine: PR4 scenario-batched vs trace-compiled plans "
        f"(co2/LSTM, {len(LEVELS)} levels, n_runs={N_RUNS}, "
        f"mc_samples={MC_SAMPLES})"
    )
    specs = uniform_sweep(LEVELS)
    cells = len(LEVELS) * N_RUNS
    timings = {}
    results = {}

    def _timed(label, campaign):
        campaign.sweep(specs)  # warmup (warms caches; traces the plan)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            results[label] = campaign.sweep(specs)
            best = min(best, time.perf_counter() - start)
        timings[label] = best

    # Baseline: the PR 4 engine — every sweep re-interprets the forward.
    clear_memory_cache()
    plan_mod.clear_plans()
    _timed("pr4-scenario-batched", _campaign(plan=False))

    # This PR: trace once on warmup, replay every timed sweep.
    clear_memory_cache()
    plan_mod.clear_plans()
    _timed("plan-replay", _campaign(plan=True))

    for label in ("pr4-scenario-batched", "plan-replay"):
        print(
            f"{label:>20}: {timings[label] * 1000:7.1f}ms/sweep "
            f"({cells / timings[label]:7.1f} cells/s)"
        )

    for baseline_result, plan_result in zip(
        results["pr4-scenario-batched"], results["plan-replay"]
    ):
        np.testing.assert_array_equal(
            baseline_result.values, plan_result.values
        )

    speedup = timings["pr4-scenario-batched"] / timings["plan-replay"]
    print(f" speedup: {speedup:.2f}x (threshold {MIN_SPEEDUP:.1f}x)")
    target = bench_path("pr5")
    record_bench(
        "co2", "pr4-scenario-batched",
        cells / timings["pr4-scenario-batched"], 1.0, bench_file=target,
    )
    record_bench(
        "co2", "plan-replay", cells / timings["plan-replay"], speedup,
        bench_file=target,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"expected trace-compiled plan replay to be >={MIN_SPEEDUP}x faster "
        f"than the PR 4 scenario-batched backend on the tiny LSTM severity "
        f"sweep, got {speedup:.2f}x"
    )
