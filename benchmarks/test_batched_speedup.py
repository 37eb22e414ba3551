"""Campaign-engine benchmark: stacked passes vs the per-cell reference.

Runs one Monte Carlo uniform-noise campaign (tiny CO2/LSTM task,
``n_runs=32``) on the per-cell engine (``PER_CELL``) and on an engine
whose byte budget fits one scenario's chips per pass, asserts the
per-chip values are bit-identical, and reports wall-clock throughput
for each.  Stacking needs no parallel hardware: it replaces ``C``
Python-dispatched forwards by one stacked tensor pass, so the speedup
materializes even on a 1-core container — the ≥3× assertion is
unconditional.  The LSTM task is the engine's best case (hundreds of tiny
matmuls per forward, all dispatch overhead); see docs/campaign-engine.md
for per-task ratios.

Run explicitly (benchmarks are excluded from tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_batched_speedup.py -s
"""

import time

import numpy as np
import pytest

from repro.eval import build_task, clear_memory_cache, make_evaluator, trained_model
from repro.faults import (
    PER_CELL,
    EngineConfig,
    MonteCarloCampaign,
    uniform_sweep,
)
from repro.faults.executor import Footprint
from repro.models import proposed

from conftest import print_banner
from recorder import record_bench

N_RUNS = 32
LEVELS = [0.0, 0.1, 0.2]
MIN_SPEEDUP = 3.0


def _pair():
    task = build_task("co2", preset="tiny")
    method = proposed()
    model = trained_model(task, method, "tiny", seed=0)
    evaluator = make_evaluator(task.name, task.test_set, method, mc_samples=4)
    return model, evaluator


def _one_scenario_engine() -> EngineConfig:
    """A budget that fits exactly one scenario's ``N_RUNS`` chips.

    One scenario per pass: this benchmark measures the chip-stacking win
    in isolation (its sweep would otherwise stack the two nonzero levels
    and inflate the ratio).
    """
    footprint = Footprint.of(*_pair())
    return EngineConfig(N_RUNS * footprint.samples * footprint.instance_bytes)


def _campaign(engine: EngineConfig) -> MonteCarloCampaign:
    model, evaluator = _pair()
    return MonteCarloCampaign(
        model, evaluator, n_runs=N_RUNS, base_seed=0, engine=engine
    )


@pytest.mark.paper_artifact("campaign-engine")
def test_batched_campaign_speedup():
    print_banner(
        f"Campaign engine: per-cell vs stacked (co2/LSTM, n_runs={N_RUNS})"
    )
    specs = uniform_sweep(LEVELS)
    cells = 1 + (len(LEVELS) - 1) * N_RUNS
    timings = {}
    results = {}
    engines = {"serial": PER_CELL, "batched": _one_scenario_engine()}
    for executor, engine in engines.items():
        clear_memory_cache()
        campaign = _campaign(engine)
        start = time.perf_counter()
        results[executor] = campaign.sweep(specs)
        timings[executor] = time.perf_counter() - start
        print(f"{executor:>8}: {timings[executor]:6.2f}s "
              f"({cells / timings[executor]:6.2f} cells/s)")

    for serial_result, batched_result in zip(results["serial"], results["batched"]):
        np.testing.assert_array_equal(serial_result.values, batched_result.values)
    speedup = timings["serial"] / timings["batched"]
    print(f" speedup: {speedup:.2f}x (threshold {MIN_SPEEDUP:.1f}x)")
    record_bench("co2", "serial", cells / timings["serial"], 1.0)
    record_bench("co2", "batched", cells / timings["batched"], speedup)
    assert speedup >= MIN_SPEEDUP, (
        f"expected stacked passes to be >={MIN_SPEEDUP}x faster than the "
        f"per-cell loop on the tiny LSTM campaign, got {speedup:.2f}x"
    )
