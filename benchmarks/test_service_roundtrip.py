"""Campaign-service benchmark: daemon + content-addressed result store.

Runs a Monte Carlo bitflip severity sweep (tiny CO2/LSTM task, 8 severity
levels) three ways:

* **serial** — the in-process reference: ``run_robustness_sweep`` on the
  per-cell engine (``engine=PER_CELL``) with the cache disabled, i.e.
  what a cold client computed locally before PR 8;
* **service-cold** — the same sweep through a freshly started campaign
  service with an empty result store: every cell is computed on the
  default (stacked) engine and landed in the store;
* **service-warm** — the identical request repeated against the same
  daemon: every scenario must come back from the content-addressed store
  (``computed_cells == 0``) with nothing recomputed
  (``redundant_cells == 0``).

Asserted: both service rounds bit-identical to the serial reference,
zero-redundant accounting on the repeat, and a warm-round wall-clock win
over the cold round.  The cross-round speedup holds on any core count
(the warm round does no model work at all); the *cold-round vs serial*
comparison is asserted only with ``os.cpu_count() >= 2`` and merely
recorded on a single-CPU container.

Recorded to ``BENCH_pr8.json`` (schema v3): the serial reference row, the
cold and warm service rounds (``ratio`` = speedup vs serial), and the
compute's row (``worker``/``cells``/``seconds`` extras — see
``docs/benchmarks.md``).

Run explicitly (benchmarks are excluded from tier-1)::

    REPRO_PRESET=tiny PYTHONPATH=src python -m pytest benchmarks/test_service_roundtrip.py -s
"""

import os
import time

import numpy as np
import pytest

from repro.eval import build_task, clear_memory_cache, run_robustness_sweep
from repro.eval.cache import ResultStore
from repro.faults import PER_CELL, bitflip_sweep
from repro.models import proposed
from repro.serve import CampaignService, ServiceClient

from conftest import print_banner
from recorder import bench_path, record_bench

N_RUNS = 3
LEVELS = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4]
MIN_WARM_SPEEDUP = 3.0  # warm round does no model work at all
MIN_COLD_SPEEDUP = 1.1  # asserted only with >= 2 real cores


@pytest.mark.paper_artifact("campaign-service")
def test_service_round_trip_speedup(tmp_path):
    print_banner(
        f"Campaign service: serial vs daemon + result store "
        f"(co2/LSTM, {len(LEVELS)} levels, n_runs={N_RUNS})"
    )
    methods = [proposed()]
    specs = bitflip_sweep(LEVELS)
    clear_memory_cache()
    task = build_task("co2", preset="tiny", seed=0)
    # Train (or load) once up front so the serial timing below measures
    # the campaign, not model training.
    run_robustness_sweep(
        task, methods, specs[:1], preset="tiny", seed=0, n_runs=1,
        use_cache=False,
    )

    t0 = time.perf_counter()
    reference = run_robustness_sweep(
        task, methods, specs, preset="tiny", seed=0, n_runs=N_RUNS,
        use_cache=False, engine=PER_CELL,
    )
    serial_s = time.perf_counter() - t0

    store = ResultStore(root=tmp_path / "store")
    service = CampaignService(store=store)
    with service, ServiceClient(service.address) as client:
        t0 = time.perf_counter()
        cold, cold_stats = client.sweep(
            "co2", methods, specs, preset="tiny", seed=0, n_runs=N_RUNS
        )
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm, warm_stats = client.sweep(
            "co2", methods, specs, preset="tiny", seed=0, n_runs=N_RUNS
        )
        warm_s = time.perf_counter() - t0

    for name in reference.curves:
        np.testing.assert_array_equal(
            reference.curves[name].means, cold.curves[name].means
        )
        np.testing.assert_array_equal(
            reference.curves[name].stds, cold.curves[name].stds
        )
        np.testing.assert_array_equal(
            reference.curves[name].means, warm.curves[name].means
        )
    assert cold_stats["redundant_cells"] == 0
    assert warm_stats["computed_cells"] == 0
    assert warm_stats["redundant_cells"] == 0

    cells = cold_stats["served_cells"] + cold_stats["computed_cells"]
    cold_speedup = serial_s / cold_s
    warm_speedup = cold_s / warm_s
    print(f"serial        : {serial_s:8.3f}s  {cells / serial_s:8.1f} cells/s")
    print(f"service cold  : {cold_s:8.3f}s  {cells / cold_s:8.1f} cells/s "
          f"({cold_speedup:.2f}x vs serial)")
    print(f"service warm  : {warm_s:8.3f}s  {cells / warm_s:8.1f} cells/s "
          f"({warm_speedup:.2f}x vs cold)")
    for row in cold_stats["workers"]:
        print(f"  worker {row['worker']}: {row['cells']:3d} cells in "
              f"{row['seconds']:.3f}s = {row['cells_per_sec']:.1f} cells/s")

    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm store round only {warm_speedup:.2f}x over cold "
        f"(expected >= {MIN_WARM_SPEEDUP}x: it does no model work)"
    )
    if (os.cpu_count() or 1) >= 2:
        assert cold_speedup >= MIN_COLD_SPEEDUP, (
            f"cold service round only {cold_speedup:.2f}x over serial "
            f"with {os.cpu_count()} cores"
        )

    target = bench_path("pr8")
    record_bench("co2", "serial", cells / serial_s, 1.0, bench_file=target)
    record_bench(
        "co2", "service-cold", cells / cold_s, cold_speedup,
        bench_file=target,
    )
    record_bench(
        "co2", "service-warm", cells / warm_s, serial_s / warm_s,
        bench_file=target,
        extra={"served_cells": warm_stats["served_cells"]},
    )
    for row in cold_stats["workers"]:
        record_bench(
            "co2", f"worker-{row['worker']}", row["cells_per_sec"], 1.0,
            bench_file=target,
            extra={"worker": row["worker"], "cells": row["cells"],
                   "seconds": round(row["seconds"], 4)},
        )
