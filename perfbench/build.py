"""Prepare the benchmark's state once per checkout.

Usage::

    REPRO_CACHE_DIR=DIR/models python perfbench/build.py DIR

Trains every model the workloads load (into ``REPRO_CACHE_DIR``, which
the workloads then copy) and computes the service oracle: the
per-scenario values of every level in the service workload's pools, from
the serial engine with plans off, written to ``DIR/service_oracle.json``.
``DIR/oracle_flags.json`` holds the CLI flags of the sweeps' oracle:
``--no-plan`` while the CLI still has plans to turn off.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pools  # noqa: E402

#: (task, preset) of every model a workload loads at ``--seed 0``;
#: ``table1-cold`` trains its own models on purpose.
MODEL_SETS = (("co2", "small"), ("image", "tiny")) + tuple(
    (task, "tiny") for task in pools.SERVICE_TASKS
)


def oracle_flags() -> list:
    from repro.eval.cli import build_parser

    try:
        with contextlib.redirect_stderr(io.StringIO()):
            build_parser().parse_args(["fig6", "--task", "co2", "--no-plan"])
    except SystemExit:
        return []
    return ["--no-plan"]


def main() -> None:
    from repro.eval.cache import campaign_key, load_campaign_values, trained_model
    from repro.eval.campaigns import campaign_eval_cap, run_robustness_sweep
    from repro.eval.tasks import build_task, mc_runs, mc_samples
    from repro.faults import bitflip_sweep

    out_dir = sys.argv[1]
    flags = oracle_flags()
    plans_off = {"plan": False} if flags else {}
    for task_name, preset in MODEL_SETS:
        task = build_task(task_name, preset=preset, seed=0)
        for method in pools.methods():
            trained_model(task, method, preset, seed=0)

    preset = pools.SERVICE_PRESET
    oracle = {}
    for task_name in pools.SERVICE_TASKS:
        task = build_task(task_name, preset=preset, seed=0)
        table = oracle[task_name] = {}
        for column in pools.columns():
            specs = bitflip_sweep(column)
            run_robustness_sweep(
                task, pools.methods(), specs, preset=preset, seed=0,
                executor="serial", use_cache=False, **plans_off,
            )
            for method in pools.methods():
                per_method = table.setdefault(method.name, {})
                for position, spec in enumerate(specs):
                    key = campaign_key(
                        task, method, spec, mc_runs(preset), mc_samples(preset),
                        0, campaign_eval_cap(preset),
                    )
                    per_method.setdefault(str(position), {})[repr(spec.level)] = (
                        load_campaign_values(key).tolist()
                    )
    with open(os.path.join(out_dir, "service_oracle.json"), "w") as fh:
        json.dump(oracle, fh)
    with open(os.path.join(out_dir, "oracle_flags.json"), "w") as fh:
        json.dump(flags, fh)


if __name__ == "__main__":
    main()
