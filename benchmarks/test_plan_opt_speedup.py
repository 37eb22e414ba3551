"""Campaign-engine benchmark: plan-IR optimizer vs raw-trace replay (PR 5).

Runs the same Monte Carlo uniform-noise severity sweep as
``test_plan_speedup.py`` (tiny CO2/LSTM task, the tiny preset's native
``n_runs=3`` chips and ``mc_samples=4`` Bayesian passes, 8 severity
levels, evaluation capped at 64 windows) in two configurations of the
plan-routed scenario-batched ``batched`` executor:

* **baseline** — the PR 5 engine (``plan=True, plan_opt=False``): every
  timed sweep replays the *raw* traced step list;
* **optimized** — this PR's engine (``plan_opt=True``, the default): the
  traced step list first runs through the IR passes of
  ``repro.tensor.plan_passes`` — constant folding (frozen quantized
  weights and their transposes), dead-step elimination, and kernel
  fusion (the LSTM's per-timestep sigmoid/tanh/mul/add gate arithmetic
  collapses into composite kernels) — and every timed sweep replays the
  shorter list.

Timed sweeps are *interleaved* (raw, optimized, raw, optimized, ...)
rather than block-measured, so slow drift in machine state — CPU
frequency, page cache, competing load — hits both configurations
equally and the min-of-repeats ratio isolates the optimizer effect.
Measurement additionally runs in ``ROUNDS`` layout rounds: each round
drops both plan caches and re-traces behind a differently sized heap
ballast, resampling the buffer-pool addresses the allocator hands each
configuration.  Per-process allocation luck (cache-line conflicts
between pooled replay buffers) otherwise moves single-build ratios by
several percent; the min over rounds converges each configuration to
its own layout floor instead of comparing one lucky draw against one
unlucky one.

Per-(scenario, chip) values are asserted bit-identical, the optimizer
must cut the replay step count by ≥20% on this sweep, throughput for
both configurations is recorded to ``BENCH_pr6.json`` (schema v3; the
optimized row carries ``steps_before``/``steps_after``/
``step_reduction`` extras — see ``docs/benchmarks.md``), and the ≥1.1x
cells/s assertion is unconditional — pure step-count and allocation
savings, no parallel hardware involved.

Run explicitly (benchmarks are excluded from tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_plan_opt_speedup.py -s
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
MAX_EVAL_SAMPLES = 64  # large enough that replay arrays dwarf layout luck
LEVELS = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
ROUNDS = 5  # re-trace rounds; each resamples the buffer-pool heap layout
REPEATS = 10  # interleaved timed sweeps per configuration per round
MIN_SPEEDUP = 1.1
MIN_STEP_REDUCTION = 0.20


def _build():
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
    return model, evaluator


def _campaign(model, evaluator, plan_opt: bool) -> MonteCarloCampaign:
    return MonteCarloCampaign(
        model,
        evaluator,
        n_runs=N_RUNS,
        base_seed=0,
        executor="batched",
        plan=True,
        plan_opt=plan_opt,
    )


def _step_counts(model) -> tuple:
    """Summed (steps_before, steps_after) over the model's cached plans."""
    before = after = 0
    for entry in plan_mod.plan_stats(model).plans.values():
        stats = getattr(entry, "opt_stats", None)
        if stats is not None:
            before += stats["steps_before"]
            after += stats["steps_after"]
    return before, after


@pytest.mark.paper_artifact("campaign-engine")
def test_plan_optimizer_sweep_speedup():
    print_banner(
        f"Campaign engine: raw-trace replay (PR5) vs optimized plan IR "
        f"(co2/LSTM, {len(LEVELS)} levels, n_runs={N_RUNS}, "
        f"mc_samples={MC_SAMPLES})"
    )
    specs = uniform_sweep(LEVELS)
    cells = len(LEVELS) * N_RUNS
    timings = {"plan-replay": float("inf"), "plan-opt": float("inf")}
    results = {}
    step_counts = {}

    def _prepare(label, plan_opt):
        # Fresh caches per build: deterministic retraining gives both
        # configurations bit-identical weights on distinct model objects
        # (distinct plan caches), so interleaved sweeps cannot interact.
        clear_memory_cache()
        model, evaluator = _build()
        return label, _campaign(model, evaluator, plan_opt), model

    # Baseline: the PR 5 engine — replays the raw traced step list.
    # This PR: fold/eliminate/fuse at trace time, replay the short list.
    plan_mod.clear_plans()
    prepared = [
        _prepare("plan-replay", plan_opt=False),
        _prepare("plan-opt", plan_opt=True),
    ]

    for rnd in range(ROUNDS):
        # Deterministically sized ballast shifts the heap before this
        # round's traces, so each round's buffer pools land at different
        # addresses (round 0 is the unshifted baseline layout).
        ballast = [bytes(4096 + 977 * rnd * k) for k in range(1, 40)]
        plan_mod.clear_plans()
        for label, campaign, model in prepared:
            campaign.sweep(specs)  # warmup: traces this round's plans
            step_counts[label] = _step_counts(model)
        del ballast
        for _ in range(REPEATS):
            for label, campaign, _model in prepared:
                start = time.perf_counter()
                results[label] = campaign.sweep(specs)
                timings[label] = min(
                    timings[label], time.perf_counter() - start
                )

    for label in ("plan-replay", "plan-opt"):
        print(
            f"{label:>12}: {timings[label] * 1000:7.1f}ms/sweep "
            f"({cells / timings[label]:7.1f} cells/s)"
        )

    for baseline_result, opt_result in zip(
        results["plan-replay"], results["plan-opt"]
    ):
        np.testing.assert_array_equal(baseline_result.values, opt_result.values)

    before, after = step_counts["plan-opt"]
    assert before > 0, "optimized campaign traced no plans"
    reduction = 1.0 - after / before
    print(
        f" replay steps: {before} -> {after} "
        f"({reduction:.1%} reduction, threshold {MIN_STEP_REDUCTION:.0%})"
    )

    speedup = timings["plan-replay"] / timings["plan-opt"]
    print(f" speedup: {speedup:.2f}x (threshold {MIN_SPEEDUP:.1f}x)")
    target = bench_path("pr6")
    record_bench(
        "co2", "plan-replay", cells / timings["plan-replay"], 1.0,
        bench_file=target,
    )
    record_bench(
        "co2", "plan-opt", cells / timings["plan-opt"], speedup,
        bench_file=target,
        extra={
            "steps_before": int(before),
            "steps_after": int(after),
            "step_reduction": round(reduction, 3),
        },
    )
    assert reduction >= MIN_STEP_REDUCTION, (
        f"expected the optimizer to drop >={MIN_STEP_REDUCTION:.0%} of replay "
        f"steps on the tiny LSTM severity sweep, got {reduction:.1%} "
        f"({before} -> {after})"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"expected optimized plan replay to be >={MIN_SPEEDUP}x faster than "
        f"raw-trace replay on the tiny LSTM severity sweep, got {speedup:.2f}x"
    )
