"""Command-line experiment runner.

Regenerate any paper artifact without pytest::

    python -m repro.eval table1 --preset small
    python -m repro.eval fig5 --task image --fault bitflip
    python -m repro.eval fig6 --task co2 --fault multiplicative
    python -m repro.eval fig7 --shift rotation
    python -m repro.eval campaign --task audio --fault additive \
        --levels 0 0.1 0.2 --runs 10

Monte Carlo campaigns run on the byte-budgeted campaign engine
(:class:`repro.faults.executor.EngineConfig`): it stacks chips, Monte
Carlo samples and same-kind severity levels of a sweep into vectorized
forwards while they fit its budget, and evaluates the rest cell by cell,
bit-identical either way.  A live throughput line (cells/s, ETA) is
printed to stderr while a sweep is running, and ``--profile`` prints
where the sweep's wall time went (fault attach, metric evaluation,
result-store and service-transport time) and how the engine ran the
cells (stacked passes, instances per pass, per-cell cells by reason,
cells shared between methods that build one network).

Trained models and completed campaign scenarios are cached under
``.repro_cache`` exactly as the benchmarks do, so repeated and resumed
invocations skip finished work (``--no-cache`` forces re-simulation).
A cold ``table1`` or local sweep command reads the result store once,
trains the missing models of the networks that have a scenario the store
cannot serve (:func:`repro.eval.cache.train_models`), then computes its
missing cells (:func:`repro.eval.campaigns.compute_pending`); both run
on every usable CPU, one forked worker per CPU and one BLAS thread per
worker, and give the same bytes as one CPU does.  Methods that build
one network (:func:`repro.eval.tasks.network_method`: SpatialSpinDrop
is SpinDrop on the co2 LSTM) share its checkpoint and its computed
cells, and each still gets its own store entries and table column.

Campaign-family commands can also run through a long-lived campaign
service daemon (:mod:`repro.serve`, started with ``python -m
repro.serve``): ``--connect HOST:PORT`` sends the sweep there, the
daemon serves already-computed cells from its content-addressed result
store, and results stay bit-identical to the local path.
"""

from __future__ import annotations

import argparse
import contextlib
from typing import List

from ..core.bayesian import BayesianClassifier
from ..data import noise_stages, rotation_backend, rotation_stages
from ..faults import (
    FaultSpec,
    additive_sweep,
    bitflip_sweep,
    multiplicative_sweep,
    uniform_sweep,
)
from ..models import all_methods, proposed
from ..profiling import profiled
from ..tensor import manual_seed
from ..uncertainty import evaluate_shift_sweep
from .campaigns import (
    BASELINE_SWEEP,
    clean_metrics,
    compute_pending,
    split_sweep,
)
from .cache import train_models, trained_model
from .reporting import (
    ProgressMeter,
    format_profile,
    format_service_stats,
    format_sweep,
    format_table_row,
    summarize_improvements,
    table_header,
)
from .tasks import build_task, mc_samples

_SWEEP_BUILDERS = {
    "bitflip": bitflip_sweep,
    "additive": additive_sweep,
    "multiplicative": multiplicative_sweep,
    "uniform": uniform_sweep,
}

_DEFAULT_LEVELS = {
    "bitflip": [0.0, 0.05, 0.10, 0.20],
    "additive": [0.0, 0.1, 0.2, 0.4],
    "multiplicative": [0.0, 0.2, 0.4, 0.8],
    "uniform": [0.0, 0.1, 0.2, 0.4],
}

_CONVENTIONAL_NORM = {"image": "batch", "audio": "batch", "co2": "batch",
                      "vessels": "group"}


def _methods_for(task_name: str):
    return all_methods(conventional_norm=_CONVENTIONAL_NORM[task_name])


def cmd_table1(args) -> None:
    rows = [
        ("image", "ResNet-18", "Accuracy", "1/1"),
        ("audio", "M5", "Accuracy", "8/8"),
        ("vessels", "U-Net", "mIoU", "1/4"),
        ("co2", "LSTM", "RMSE", "8/8"),
    ]
    works = [
        split_sweep(build_task(name, preset=args.preset, seed=args.seed),
                    _methods_for(name), preset=args.preset, seed=args.seed,
                    use_cache=not args.no_cache, **BASELINE_SWEEP)
        for name, *_ in rows
    ]
    _train_and_compute(works, args)
    print(table_header())
    for (task_name, topology, metric, precision), work in zip(rows, works):
        values = clean_metrics(work.assemble())
        print(format_table_row(topology, task_name, metric, precision, values))


def _train_and_compute(works, args, on_cell_done=None) -> None:
    """Train the models of the pending networks of ``works``, then
    compute their pending scenarios; both on every usable CPU."""
    train_models(
        [(work.task, work.methods[m]) for work in works for m in work.pending],
        args.preset, seed=args.seed,
    )
    compute_pending(works, on_cell_done=on_cell_done)


def cmd_sweep(args) -> None:
    levels = args.levels if args.levels else _DEFAULT_LEVELS[args.fault]
    specs = _SWEEP_BUILDERS[args.fault](levels)
    if args.connect is not None:
        _cmd_sweep_service(args, specs)
        return
    _cmd_sweep_local(args, specs)


def _cmd_sweep_local(args, specs) -> None:
    """The local sweep path (also the --fallback-local target)."""
    task = build_task(args.task, preset=args.preset, seed=args.seed)
    meter = ProgressMeter(label=f"{args.task}/{args.fault}")
    with contextlib.ExitStack() as stack:
        stages = stack.enter_context(profiled()) if args.profile else None
        work = split_sweep(
            task, _methods_for(args.task), specs, preset=args.preset,
            seed=args.seed, n_runs=args.runs, use_cache=not args.no_cache,
        )
        _train_and_compute([work], args, on_cell_done=meter)
    if meter.total:
        meter.finish()
    sweep = work.assemble(progress=print if args.verbose else None)
    print(format_sweep(sweep))
    print(summarize_improvements(sweep))
    if stages is not None:
        print(format_profile(stages))


def _cmd_sweep_service(args, specs) -> None:
    """Route one sweep through the campaign service daemon at ``--connect``.

    Results are bit-identical to the in-process driver; the service
    stats line below the tables shows store/compute accounting and the
    compute's throughput.

    Client deadlines and retries come from ``--connect-timeout`` /
    ``--request-timeout`` / ``--retries``.  With ``--fallback-local``,
    a service that stays unreachable after every retry degrades to the
    in-process engine instead of failing the invocation — safe because
    both paths are bit-identical.
    """
    from ..serve import ServiceClient, ServiceUnavailable

    methods = _methods_for(args.task)
    try:
        with contextlib.ExitStack() as stack:
            stages = stack.enter_context(profiled()) if args.profile else None
            client = stack.enter_context(ServiceClient(
                args.connect,
                connect_timeout=args.connect_timeout,
                request_timeout=args.request_timeout,
                retries=args.retries,
            ))
            on_partial = None
            if args.verbose:
                def on_partial(frame):
                    print(f"[{args.task}/{frame['method']}] scenario "
                          f"{frame['scenario']} <- {frame['source']}")
            sweep, stats = client.sweep(
                args.task,
                methods,
                specs,
                preset=args.preset,
                seed=args.seed,
                n_runs=args.runs,
                use_store=not args.no_cache,
                on_partial=on_partial,
            )
            if stages is not None:
                stages["store"] = (
                    stages.get("store", 0.0) + stats.get("store_seconds", 0.0)
                )
    except ServiceUnavailable as exc:
        if not args.fallback_local:
            raise
        print(f"service unavailable ({exc}); falling back to the "
              "in-process engine")
        _cmd_sweep_local(args, specs)
        return
    print(format_sweep(sweep))
    print(summarize_improvements(sweep))
    print(format_service_stats(stats))
    if stages is not None:
        print(format_profile(stages))


def cmd_store_gc(args) -> None:
    """Garbage-collect the content-addressed result store.

    Always retires entries written under a different RNG contract
    (unreachable since a contract bump changes every key); with
    ``--max-entries`` additionally evicts least-recently-served entries
    down to the cap.  Prints the counters so service hosts can cron it.
    """
    from .cache import result_store

    store = result_store()
    retired = store.retire_stale()
    evicted = store.evict(args.max_entries) if args.max_entries is not None \
        else 0
    print(f"store-gc: {retired} stale entries retired, "
          f"{evicted} evicted, {len(store)} remaining")


def cmd_fig7(args) -> None:
    if args.shift == "rotation":
        # Fail before training and the unrotated stage, not after them.
        try:
            rotation_backend()
        except ImportError as exc:
            raise SystemExit(f"fig7 --shift rotation: {exc}") from None
    task = build_task("image", preset=args.preset, seed=args.seed)
    model = trained_model(task, proposed(), args.preset, seed=args.seed)
    clf = BayesianClassifier(model, num_samples=mc_samples(args.preset))
    inputs = task.test_set.inputs[:100]
    labels = task.test_set.targets[:100]
    magnitudes = (
        rotation_stages() if args.shift == "rotation"
        else noise_stages(max_strength=2.0, stages=8)
    )
    result = evaluate_shift_sweep(clf, inputs, labels, args.shift, magnitudes)
    print(f"{'shift':>9} | {'accuracy':>9} | {'NLL':>8} | {'flagged':>8}")
    for stage in result.stages:
        print(f"{stage.magnitude:9.1f} | {stage.accuracy:9.3f} | "
              f"{stage.nll:8.3f} | {stage.detection_rate:8.1%}")
    print(f"overall OOD detection rate: {result.overall_detection_rate():.1%}")


class _DistinctLevels(argparse.Action):
    """``--levels`` store action that rejects repeated levels.

    The result store keys a scenario on its level while its fault seeds
    come from its position, so a repeated level would collide there.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if len(set(values)) != len(values):
            parser.error(f"{option_string} must be distinct, got {values}")
        setattr(namespace, self.dest, values)


def _positive_int(text: str) -> int:
    """``--runs`` type: a campaign needs at least one chip per scenario."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global options, accepted before *or* after the subcommand.

    The subparser copies use ``SUPPRESS`` defaults so a value given after
    the subcommand overrides the root default without clobbering a value
    given before it.
    """
    parser.add_argument(
        "--preset", choices=("tiny", "small", "paper"),
        default=argparse.SUPPRESS if suppress else "small",
    )
    parser.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS if suppress else 0
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate paper artifacts from the command line.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="Table I fault-free metrics")
    _add_common(p1, suppress=True)
    p1.add_argument(
        "--no-cache", action="store_true",
        help="ignore cached fault-free results and re-evaluate every method",
    )

    for name, help_text in (
        ("fig5", "Fig. 5 robustness panel (image/vessels)"),
        ("fig6", "Fig. 6 robustness panel (audio/co2)"),
        ("campaign", "custom fault sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
        p.add_argument("--task", required=True,
                       choices=("image", "audio", "co2", "vessels"))
        p.add_argument("--fault", default="bitflip", choices=tuple(_SWEEP_BUILDERS))
        p.add_argument("--levels", type=float, nargs="*", default=None,
                       action=_DistinctLevels)
        p.add_argument("--runs", type=_positive_int, default=None)
        p.add_argument("--verbose", action="store_true")
        p.add_argument(
            "--profile", action="store_true",
            help="print a per-stage wall-time breakdown after the sweep "
                 "(fault attach, metric evaluation, result-store and "
                 "service-transport time) and the engine's stacked passes "
                 "and per-cell fallbacks, for locating hot paths without "
                 "external tooling",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="ignore cached campaign results and re-simulate every cell "
                 "(with --connect: bypass the daemon's result store entirely)",
        )
        p.add_argument(
            "--connect", default=None, metavar="HOST:PORT",
            help="run the sweep through a running campaign service "
                 "daemon (python -m repro.serve); it keeps models and their "
                 "deployment caches warm across invocations and serves "
                 "already-computed cells from its result store "
                 "(bit-identical to the local path)",
        )
        p.add_argument(
            "--connect-timeout", type=float, default=5.0, metavar="SECONDS",
            help="TCP connect deadline per service attempt (default 5)",
        )
        p.add_argument(
            "--request-timeout", type=float, default=600.0, metavar="SECONDS",
            help="deadline on every blocking service read/write — a "
                 "stalled reply frame trips it and triggers a retry "
                 "(default 600)",
        )
        p.add_argument(
            "--retries", type=int, default=2,
            help="additional attempts after a transport failure "
                 "(reconnect with exponential backoff + deterministic "
                 "jitter; the retried request re-sends the same "
                 "idempotent request id, so nothing is double-counted; "
                 "default 2)",
        )
        p.add_argument(
            "--fallback-local", action="store_true",
            help="if the service stays unreachable after every retry, "
                 "run the sweep on the in-process engine instead of "
                 "failing (bit-identical results either way)",
        )

    pgc = sub.add_parser(
        "store-gc",
        help="bound the content-addressed result store on long-lived hosts",
    )
    _add_common(pgc, suppress=True)
    pgc.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="evict least-recently-served entries down to N "
             "(recency = entry mtime, refreshed on every verified read; "
             "omit to only retire stale-contract entries)",
    )

    p7 = sub.add_parser("fig7", help="Fig. 7 OOD shift sweep")
    _add_common(p7, suppress=True)
    p7.add_argument("--shift", default="rotation", choices=("rotation", "uniform"))
    return parser


def main(argv: List[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    manual_seed(args.seed)
    if args.command == "table1":
        cmd_table1(args)
    elif args.command in ("fig5", "fig6", "campaign"):
        cmd_sweep(args)
    elif args.command == "store-gc":
        cmd_store_gc(args)
    elif args.command == "fig7":
        cmd_fig7(args)


if __name__ == "__main__":
    main()
