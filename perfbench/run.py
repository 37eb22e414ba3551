"""End-to-end artifact benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in closed loop with one client and prints, as the last
line of stdout, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` they are the per-layer ones, from spans recorded by
wrappers this benchmark installs into the working process
(``perfbench/tracing.py``).  The lines above the JSON record the seed,
the generated inputs and all six end-to-end metrics with their units.

Workloads (see ``BENCHMARK.json`` and ``perfbench/NOTES.md`` for why):

* ``co2-lstm-sweep``  -- ``python -m repro.eval fig6 --task co2 --preset small``
* ``image-conv-sweep`` -- ``python -m repro.eval fig5 --task image --preset tiny``
* ``service-mixed``   -- ``ServiceClient.sweep`` against ``python -m repro.serve``
* ``table1-cold``     -- ``python -m repro.eval table1 --preset tiny`` from an
  empty model cache

State lives under ``.bench_build/`` in the checkout: models trained once
per source tree, and a fresh cache directory (models copied in, empty
result store) for every operation.  The repository's ``.repro_cache`` is
never read or written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import pools  # noqa: E402
import tracing  # noqa: E402

#: Set-ups per run; setup_s is their median.  A CLI op is itself a cold
#: process, so its workloads make one warm-up invocation: a second one
#: added about 27 s to every round of four runs under neighbour load on
#: a shared 2-core host (see NOTES.md).
CLI_SETUPS = 1
SERVICE_SETUPS = 3
#: Deadline of one CLI process or service request.  A run must end
#: within 180 s, so an op that overruns this counts as failed.
OP_TIMEOUT_S = 100.0
BUILD_TIMEOUT_S = 850.0
SERVICE_WORKERS = 2
#: Requests generated per service run; a run stops at --seconds first.
SERVICE_REQUESTS = 400

CLI_WORKLOADS = {
    "co2-lstm-sweep": ["fig6", "--task", "co2", "--preset", "small", "--no-cache"],
    "image-conv-sweep": ["fig5", "--task", "image", "--preset", "tiny", "--no-cache"],
}


# ----------------------------------------------------------------------
# Arithmetic (covered by perfbench/test_perfbench.py)
# ----------------------------------------------------------------------
def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[int, float, int]]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples_beyond)`` by the nearest-rank
    rule, or ``None`` when no percentile from the median up qualifies
    (fewer than 20 samples).
    """
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    for pct in range(99, 49, -1):
        rank = -(-pct * n // 100)  # ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


def unattributed(wall: float, startup: float, self_times: Sequence[float]) -> float:
    """Op wall time not covered by start-up or any traced layer."""
    return wall - startup - sum(self_times)



# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
#: Every process the benchmark starts runs BLAS on one thread.  On a
#: shared 2-core host, multi-threaded OpenBLAS made the image sweep 3-4x
#: slower and erratic whenever neighbours took CPU (see NOTES.md).
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}


def child_env(cache_dir: pathlib.Path) -> Dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD_BLAS)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("PERFBENCH_T0", None)
    return env


def wait_child(proc: subprocess.Popen, timeout: float) -> Tuple[int, float, bool]:
    """Reap ``proc``; returns ``(returncode, peak_rss_mb, timed_out)``.

    ``os.wait4`` gives the peak RSS of this child alone.  A timer kills
    a child that outlives ``timeout``.
    """
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, killed.is_set()


@dataclass
class Op:
    """One finished operation: timing, memory and what it produced."""

    wall: float
    rss_mb: float = 0.0
    error: str = ""
    output: Any = None
    cells: int = 0
    spans: Optional[dict] = None  # traced CLI op: its spans file
    stats: Optional[dict] = None  # service request: the reply stats
    window: Tuple[float, float] = (0.0, 0.0)  # service request: start, end


class Workspace:
    """The benchmark's state under ``.bench_build`` in the checkout."""

    def __init__(self):
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")) + [HERE / "build.py", HERE / "pools.py"]:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        self.root = ROOT / ".bench_build" / f"perfbench-{digest.hexdigest()[:16]}"
        self.models = self.root / "models"
        self.ops = self.root / "ops" / str(os.getpid())
        self._next = 0
        #: Long-lived children (daemons), reaped at exit whatever happens.
        self.daemons: List[subprocess.Popen] = []

    def ensure_built(self) -> None:
        """Train the shared models and the service oracle, once."""
        if (self.root / "ready").exists():
            return
        for stale in self.root.parent.glob("perfbench-*"):
            shutil.rmtree(stale, ignore_errors=True)  # built from other sources
        self.models.mkdir(parents=True)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "build.py"), str(self.root)],
            cwd=ROOT, env=child_env(self.models), stdout=subprocess.DEVNULL,
        )
        code, _, timed_out = wait_child(proc, BUILD_TIMEOUT_S)
        if code != 0 or timed_out:
            raise SystemExit(f"perfbench: build failed (exit {code})")
        (self.root / "ready").write_text("ok\n")

    def op_dir(self, with_models: bool = True) -> pathlib.Path:
        """A fresh directory with a private cache (models, empty store)."""
        self._next += 1
        path = self.ops / str(self._next)
        shutil.rmtree(path, ignore_errors=True)
        cache = path / "cache"
        cache.mkdir(parents=True)
        if with_models:
            for model in self.models.glob("*.npz"):
                shutil.copyfile(model, cache / model.name)
        return path

    def oracle_table(self) -> dict:
        with open(self.root / "service_oracle.json") as fh:
            return json.load(fh)

    def oracle_flags(self) -> List[str]:
        with open(self.root / "oracle_flags.json") as fh:
            return json.load(fh)


# ----------------------------------------------------------------------
# CLI outputs
# ----------------------------------------------------------------------
def _array_digest(entry, names) -> str:
    digest = hashlib.sha256()
    for name in names:
        array = entry[name]
        digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def store_contents(cache: pathlib.Path) -> Tuple[Dict[str, str], int]:
    """``{cell key: values digest}`` of a run's result store, and its cells.

    A fault-free scenario is one cell; any other is one per chip.
    """
    import numpy as np

    contents, cells = {}, 0
    for path in sorted((cache / "store").glob("??/*.npz")):
        with np.load(path, allow_pickle=False) as entry:
            key = str(entry["key"])
            contents[key] = _array_digest(entry, ["values"])
            level = key.split("_")[6]
            cells += 1 if level == "l0" else len(entry["values"])
    return contents, cells


def checkpoint_digests(cache: pathlib.Path) -> Dict[str, str]:
    """Digest of every trained checkpoint's arrays (not its zip metadata)."""
    import numpy as np

    digests = {}
    for path in sorted(cache.glob("*.npz")):
        with np.load(path, allow_pickle=False) as entry:
            digests[path.name] = _array_digest(entry, sorted(entry.files))
    return digests


def run_cli(ws: Workspace, args: List[str], traced: bool = False,
            with_models: bool = True, checkpoints: bool = False) -> Op:
    """One fresh ``python -m repro.eval`` process, compared later by output."""
    path = ws.op_dir(with_models)
    cache = path / "cache"
    env = child_env(cache)
    if traced:
        argv = [sys.executable, str(HERE / "launch.py"), str(path / "spans.json"),
                "repro.eval", *args]
    else:
        argv = [sys.executable, "-m", "repro.eval", *args]
    with open(path / "stdout", "wb") as out, open(path / "stderr", "wb") as err:
        start = time.monotonic()
        env["PERFBENCH_T0"] = repr(start)
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        code, rss, timed_out = wait_child(proc, OP_TIMEOUT_S)
        wall = time.monotonic() - start
    if timed_out or code != 0:
        tail = (path / "stderr").read_text(errors="replace")[-400:]
        error = "timeout" if timed_out else f"exit {code}: {tail}"
        shutil.rmtree(path, ignore_errors=True)
        return Op(wall, rss, error=error)
    store, cells = store_contents(cache)
    output = {"stdout": (path / "stdout").read_text(), "store": store}
    if checkpoints:
        output["checkpoints"] = checkpoint_digests(cache)
    spans = None
    if traced:
        with open(path / "spans.json") as fh:
            spans = json.load(fh)
    shutil.rmtree(path, ignore_errors=True)
    return Op(wall, rss, output=output, cells=cells, spans=spans)


def check(op: Op, reference) -> Op:
    """Mark ``op`` failed unless its output equals ``reference`` exactly."""
    if not op.error and op.output != reference:
        op.error = "output differs from the reference"
    return op


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------
#: (metric, span name, what, unit): ``self`` = self seconds, ``calls`` =
#: span count, ``value`` = summed counter, all per op.
SPAN_METRICS = (
    ("data.build_task_s", "data.build_task", "self", "s"),
    ("eval.cache.model_s", "eval.cache.model", "self", "s"),
    ("eval.cache.models", "eval.cache.model", "calls", "count"),
    ("train.fit_s", "train.fit", "self", "s"),
    ("train.opt_steps", "train.opt_step", "calls", "count"),
    ("tensor.backward_s", "tensor.backward", "self", "s"),
    ("faults.run_cells_s", "faults.run_cells", "self", "s"),
    ("faults.cells", "faults.run_cells", "value", "count"),
    ("faults.attach_s", "faults.attach", "self", "s"),
    ("faults.attach_calls", "faults.attach", "calls", "count"),
    ("eval.metric_s", "eval.metric", "self", "s"),
    ("eval.metric_calls", "eval.metric", "calls", "count"),
    ("tensor.plan.trace_s", "tensor.plan.call", "self", "s"),
    ("tensor.plan.compile_s", "tensor.plan.compile", "self", "s"),
    ("tensor.plan.replay_s", "tensor.plan.replay", "self", "s"),
    ("tensor.plan.calls", "tensor.plan.call", "calls", "count"),
    ("tensor.plan.plans_built", "tensor.plan.compile", "calls", "count"),
    ("tensor.conv.conv2d_s", "tensor.conv.conv2d", "self", "s"),
    ("tensor.conv.conv2d_calls", "tensor.conv.conv2d", "calls", "count"),
    ("tensor.conv.conv1d_s", "tensor.conv.conv1d", "self", "s"),
    ("tensor.conv.conv_transpose2d_s", "tensor.conv.conv_transpose2d", "self", "s"),
    ("tensor.conv.pool_s", "tensor.conv.pool", "self", "s"),
    ("quant.lstm_cell_s", "quant.lstm_cell", "self", "s"),
    ("quant.lstm_cell_calls", "quant.lstm_cell", "calls", "count"),
    ("quant.linear_s", "quant.linear", "self", "s"),
    ("core.inverted_norm_s", "core.inverted_norm", "self", "s"),
    ("core.inverted_norm_calls", "core.inverted_norm", "calls", "count"),
    ("eval.store.get_s", "eval.store.get", "self", "s"),
    ("eval.store.put_s", "eval.store.put", "self", "s"),
    ("eval.store.hits", "eval.store.get", "value", "count"),
    ("eval.store.put_bytes", "eval.store.put", "value", "B"),
)

#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = dict(
    [("eval.cli.startup_s", "s")]
    + [(metric, unit) for metric, _, _, unit in SPAN_METRICS]
    + [
        ("tensor.conv.conv2d_gflop", "GFLOP"),
        ("faults.program_hit_ratio", "ratio"),
        ("tensor.plan.replay_ratio", "ratio"),
        ("eval.store.misses", "count"),
        ("eval.store.hit_ratio", "ratio"),
        ("serve.wire_s", "s"),
        ("serve.frames", "count"),
        ("serve.wire_bytes", "B"),
        ("serve.wait_s", "s"),
        ("serve.computed_cells", "count"),
        ("serve.served_cells", "count"),
        ("serve.redundant_cells", "count"),
        ("serve.retries", "count"),
        ("serve.worker_busy_s", "s"),
        ("serve.worker_imbalance", "ratio"),
        ("trace.overhead", "ratio"),
        ("trace.unattributed_s", "s"),
    ]
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Totals of a span name that recorded nothing.
NO_SPANS = {"self": 0.0, "calls": 0, "value": 0.0, "hits": 0, "misses": 0}


def layer_totals(records: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """``{span name: {"self", "calls", "value", "hits", "misses"}}``."""
    totals: Dict[str, Dict[str, float]] = {}
    for name, _start, _end, self_s, _tid, value in records:
        row = totals.setdefault(name, dict(NO_SPANS))
        row["self"] += self_s
        row["calls"] += 1
        if isinstance(value, list):
            row["hits"] += value[0]
            row["misses"] += value[1]
        elif value is not None:
            row["value"] += value
    return totals


def layer_metrics(records: Sequence[Sequence], n_ops: int) -> Dict[str, float]:
    """Per-op per-layer metrics from the spans of ``n_ops`` operations."""
    totals = layer_totals(records)
    metrics = {
        metric: totals.get(span, NO_SPANS)[what] / n_ops
        for metric, span, what, _ in SPAN_METRICS
    }
    conv = totals.get("tensor.conv.conv2d", NO_SPANS)
    attach = totals.get("faults.attach", NO_SPANS)
    plan_calls = totals.get("tensor.plan.call", NO_SPANS)["calls"]
    gets = totals.get("eval.store.get", NO_SPANS)
    metrics.update({
        "tensor.conv.conv2d_gflop": conv["value"] / 1e9 / n_ops,
        "faults.program_hit_ratio": _ratio(
            attach["hits"], attach["hits"] + attach["misses"]
        ),
        "tensor.plan.replay_ratio": _ratio(
            totals.get("tensor.plan.replay", NO_SPANS)["calls"], plan_calls
        ),
        "eval.store.misses": (gets["calls"] - gets["value"]) / n_ops,
        "eval.store.hit_ratio": _ratio(gets["value"], gets["calls"]),
    })
    return metrics


def startup_seconds(spans: dict) -> float:
    """Process start to ``cli.main``, less the tracer's own install."""
    return spans["main_entry"] - spans["t0"] - spans["install_s"]


def self_seconds(records: Sequence[Sequence]) -> List[float]:
    return [record[3] for record in records]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
class Report:
    """Counts, metrics and the human-readable lines of one run."""

    def __init__(self, workload: str, seed: int):
        self.lines = [f"# perfbench workload={workload} seed={seed}",
                      "# env: " + " ".join(f"{k}={v}" for k, v in SINGLE_THREAD_BLAS.items())]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.metrics: Dict[str, dict] = {}

    def note(self, line: str) -> None:
        self.lines.append(f"# {line}")

    def count(self, op: Op) -> Op:
        """Count a timed op; a failure also marks the run incorrect."""
        self.attempted += 1
        if op.error:
            self.failed += 1
            self.correct = False
            self.note(f"op failed: {op.error}")
        return op

    def require(self, op: Op, what: str) -> Op:
        """An untimed op (oracle, warm-up) must succeed for the run to count."""
        if op.error:
            self.correct = False
            self.note(f"{what} failed: {op.error}")
        return op

    def metric(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"{name:<34} {value:>14.6g} {unit:<6} {detail}".rstrip())

    def end_to_end(self, setup_walls, ops: Sequence[Op], setup_detail: str) -> None:
        good = [op for op in ops if not op.error]
        walls = [op.wall for op in good] or [float("nan")]
        self.metric("setup_s", statistics.median(setup_walls), "s", setup_detail)
        self.metric("op_p50_s", statistics.median(walls), "s", f"n={len(good)}")
        rates = [op.cells / op.wall for op in good] or [float("nan")]
        self.metric("cells_per_s", statistics.median(rates), "1/s",
                    "median over ops of cells / op wall time")
        self.metric("peak_rss_mb", max([op.rss_mb for op in ops] or [0.0]), "MB")
        tail = tail_percentile(walls)
        if tail is None:
            self.lines.append(f"{'op_tail_s':<34} {'n/a':>14} {'s':<6} "
                              f"needs >= 20 ops, had {len(good)}")
        else:
            pct, value, beyond = tail
            self.lines.append(f"{'op_tail_s':<34} {value:>14.6g} {'s':<6} "
                              f"p{pct}, n={len(good)}, {beyond} beyond")
        self.lines.append(f"{'error_rate':<34} "
                          f"{_ratio(self.failed, self.attempted):>14.6g} {'':<6} "
                          f"{self.failed}/{self.attempted} ops failed")

    def emit(self, trace: bool) -> None:
        for line in self.lines:
            print(line)
        if trace and self.correct:
            missing = set(LAYER_UNITS) - set(self.metrics)
            if missing:
                raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
        print(json.dumps({
            "correct": self.correct and self.attempted > 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": self.metrics,
        }))


def note_missing_layers(report: Report, spans: dict) -> None:
    missing = sorted(name for name, count in spans["bindings"].items() if not count)
    if missing:
        report.note("not in the program, so reading zero: " + ", ".join(missing))


def report_layers(report: Report, metrics: Dict[str, float]) -> None:
    for name, unit in LAYER_UNITS.items():
        report.metric(name, float(metrics.get(name, 0.0)), unit)


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------
def cli_workload(ws: Workspace, report: Report, args: List[str], seconds: float,
                 trace: bool, oracle_args: Optional[List[str]],
                 cold: bool = False) -> None:
    """Closed loop over fresh CLI processes, each checked against a reference.

    With ``oracle_args`` the reference is that command's output (the
    serial engine without plans); without, it is the first warm-up's.
    ``cold`` gives every process an empty model cache.
    """
    kwargs = {"with_models": not cold, "checkpoints": cold}
    reference = None
    if oracle_args is not None:
        oracle = report.require(run_cli(ws, oracle_args, **kwargs), "oracle")
        reference = oracle.output
    setups = []
    for _ in range(CLI_SETUPS):
        warm = run_cli(ws, args, **kwargs)
        reference = warm.output if reference is None else reference
        setups.append(report.require(check(warm, reference), "warm-up"))
    if not report.correct:
        return
    ops: List[Op] = []
    traced: List[Op] = []
    start = time.monotonic()
    while time.monotonic() - start < seconds or not ops:
        plain = report.count(check(run_cli(ws, args, **kwargs), reference))
        ops.append(plain)
        if trace:
            op = check(run_cli(ws, args, traced=True, **kwargs), reference)
            if not plain.error:
                check(op, plain.output)  # traced output == untraced output
            traced.append(report.count(op))
    if not trace:
        report.end_to_end([op.wall for op in setups], ops,
                          f"median of {len(setups)} warm-up invocation(s)")
        return
    good = [op for op in traced if not op.error]
    if not good:
        return
    records = [r for op in good for r in op.spans["records"]]
    metrics = layer_metrics(records, len(good))
    startups = [startup_seconds(op.spans) for op in good]
    metrics["eval.cli.startup_s"] = statistics.mean(startups)
    metrics["trace.overhead"] = _ratio(
        statistics.median(op.wall for op in good),
        statistics.median(op.wall for op in ops if not op.error),
    )
    metrics["trace.unattributed_s"] = statistics.median(
        unattributed(op.wall, startup, self_seconds(op.spans["records"]))
        for op, startup in zip(good, startups)
    )
    report.note(f"traced ops: {len(good)}, untraced ops: {len(ops)}")
    note_missing_layers(report, good[0].spans)
    report_layers(report, metrics)


def sweep_workload(ws, report, name, seed, seconds, trace) -> None:
    levels = pools.sweep_levels(seed)
    args = CLI_WORKLOADS[name] + ["--levels"] + [repr(level) for level in levels]
    report.note(f"levels={levels}")
    report.note("command: python -m repro.eval " + " ".join(args))
    cli_workload(ws, report, args, seconds, trace,
                 oracle_args=args + ws.oracle_flags())


def table1_workload(ws, report, seed, seconds, trace) -> None:
    args = ["table1", "--preset", "tiny", "--seed", str(seed)]
    report.note("command: python -m repro.eval " + " ".join(args)
                + " (empty model cache and store per process)")
    cli_workload(ws, report, args, seconds, trace, oracle_args=None, cold=True)


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
class Daemon:
    """A ``python -m repro.serve`` process with its own cache and store."""

    def __init__(self, ws: Workspace, traced: bool):
        self.path = ws.op_dir()
        env = child_env(self.path / "cache")
        if traced:
            argv = [sys.executable, str(HERE / "launch.py"),
                    str(self.path / "spans.json"), "repro.serve"]
        else:
            argv = [sys.executable, "-m", "repro.serve"]
        argv += ["--workers", str(SERVICE_WORKERS)]
        self.stderr = open(self.path / "stderr", "wb")
        self.start = time.monotonic()
        env["PERFBENCH_T0"] = repr(self.start)
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, stderr=self.stderr)
        ws.daemons.append(self.proc)
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError("service daemon did not start: "
                               + (self.path / "stderr").read_text()[-400:])
        self.address = line.rsplit(" ", 1)[1].strip()
        self.rss_mb = 0.0

    def stop(self, client=None) -> None:
        """Ask for a clean shutdown, then reap (killing after a deadline)."""
        if client is not None:
            try:
                client.shutdown()
            except (ConnectionError, OSError):
                pass
        else:
            self.proc.terminate()
        _, self.rss_mb, _ = wait_child(self.proc, 30.0)
        self.proc.stdout.close()
        self.stderr.close()

    def spans(self) -> dict:
        with open(self.path / "spans.json") as fh:
            return json.load(fh)


def service_request(client, oracle: dict, task: str, levels: List[float]) -> Op:
    """One sweep request, every streamed scenario checked against the oracle."""
    from repro.faults import bitflip_sweep

    frames = {}

    def collect(frame):
        frames[frame["method"], frame["scenario"]] = frame["values"]

    start = time.monotonic()
    try:
        _, stats = client.sweep(task, pools.methods(), bitflip_sweep(levels),
                                preset=pools.SERVICE_PRESET, seed=0,
                                on_partial=collect)
    except (ConnectionError, OSError, RuntimeError) as exc:
        return Op(time.monotonic() - start, error=f"request failed: {exc!r}")
    wall = time.monotonic() - start
    output = {}
    error = ""
    for method in pools.methods():
        for position, level in enumerate(levels):
            values = frames.get((method.name, position))
            expected = oracle[task][method.name][str(position)][repr(level)]
            output[method.name, position] = None if values is None else values.tolist()
            if output[method.name, position] != expected:
                error = f"{task}/{method.name} level {level} differs from the oracle"
    return Op(wall, error=error, output=output,
              cells=stats["computed_cells"] + stats["served_cells"],
              stats=stats, window=(start, start + wall))


def start_service(ws: Workspace, report: Report, oracle: dict, traced: bool):
    """Start a daemon and answer one warm-up request per task."""
    from repro.serve import ServiceClient

    daemon = Daemon(ws, traced)
    client = ServiceClient(daemon.address, request_timeout=OP_TIMEOUT_S, retries=0)
    for task in pools.SERVICE_TASKS:
        report.require(service_request(client, oracle, task, [0.0]), "warm-up")
    return daemon, client, time.monotonic() - daemon.start


def serve_requests(client, report, oracle, requests, seconds) -> List[Op]:
    ops: List[Op] = []
    start = time.monotonic()
    for task, levels in requests:
        if ops and time.monotonic() - start >= seconds:
            break
        ops.append(report.count(service_request(client, oracle, task, levels)))
    return ops


def service_workload(ws, report, seed, seconds, trace) -> None:
    oracle = ws.oracle_table()
    requests = pools.service_requests(seed, SERVICE_REQUESTS)
    report.note(f"daemon: python -m repro.serve --workers {SERVICE_WORKERS}; "
                f"requests: preset={pools.SERVICE_PRESET}, seed=0, bitflip")
    setups = []
    for attempt in range(1 if trace else SERVICE_SETUPS):
        daemon, client, setup = start_service(ws, report, oracle, traced=False)
        setups.append(setup)
        if attempt < SERVICE_SETUPS - 1 and not trace:
            daemon.stop(client)
    ops = serve_requests(client, report, oracle, requests, seconds)
    daemon.stop(client)
    report.note(f"request sequence ({len(ops)} sent): "
                + json.dumps(requests[:len(ops)]))
    for op in ops:
        op.rss_mb = daemon.rss_mb
    if not trace:
        for task in pools.SERVICE_TASKS:
            walls = [op.wall for op, (name, _) in zip(ops, requests)
                     if name == task and not op.error]
            if walls:
                report.note(f"{task} requests: median {statistics.median(walls):.4f} s, "
                            f"n={len(walls)}")
        served = sum(op.stats["served_cells"] for op in ops if not op.error)
        total = sum(op.cells for op in ops if not op.error)
        report.note(f"cells served from the store: {served}/{total}")
        report.end_to_end(setups, ops, f"median of {len(setups)} daemon starts "
                          "through the warm-up replies")
        return
    trace_service(ws, report, oracle, requests[:len(ops)], ops)


def trace_service(ws, report, oracle, requests, plain: List[Op]) -> None:
    """Replay the untraced run's requests against a traced daemon."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    daemon, client, _ = start_service(ws, report, oracle, traced=True)
    ops = serve_requests(client, report, oracle, requests, float("inf"))
    daemon.stop(client)
    for op, reference in zip(ops, plain):
        check(op, reference.output)
    good = [op for op in ops if not op.error]
    if not good or not report.correct:
        return
    window = (good[0].window[0], good[-1].window[1])
    inside = [r for r in daemon.spans()["records"]
              if window[0] <= r[1] and r[2] <= window[1]]
    n = len(good)
    metrics = layer_metrics(inside, n)
    client_records = [r for r in tracer.records if window[0] <= r[1] <= window[1]]
    client_totals = layer_totals(client_records)
    wire = client_totals.get("serve.wire", NO_SPANS)
    busy_per_request = [
        [row["seconds"] for row in op.stats["workers"]] for op in good
    ]
    imbalances = [
        max(busy) / (sum(busy) / SERVICE_WORKERS)
        for busy in busy_per_request if sum(busy) > 0
    ]
    metrics.update({
        "eval.cli.startup_s": 0.0,
        "serve.wire_s": wire["self"] / n,
        "serve.frames": wire["calls"] / n,
        "serve.wire_bytes": wire["value"] / n,
        "serve.wait_s": sum(
            client_totals.get(span, NO_SPANS)["self"]
            for span in ("serve.sweep", "serve.frame_wait")
        ) / n,
        "serve.worker_busy_s": sum(map(sum, busy_per_request)) / n,
        "serve.worker_imbalance": statistics.mean(imbalances) if imbalances else 0.0,
        "trace.overhead": _ratio(
            statistics.median(op.wall for op in good),
            statistics.median(op.wall for op in plain if not op.error),
        ),
    })
    for counter in ("computed_cells", "served_cells", "redundant_cells", "retries"):
        metrics[f"serve.{counter}"] = sum(op.stats[counter] for op in good) / n
    metrics["trace.unattributed_s"] = statistics.median(
        unattributed(op.wall, 0.0, self_seconds(
            [r for r in client_records if op.window[0] <= r[1] <= op.window[1]]
        ))
        for op in good
    )
    report.note(f"traced requests: {n}")
    note_missing_layers(report, daemon.spans())
    report_layers(report, metrics)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
WORKLOADS = (*CLI_WORKLOADS, "service-mixed", "table1-cold")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs the four in turn, one report each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "eval" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_CACHE_DIR"] = str(ROOT / ".bench_build" / "client-cache")

    ws = Workspace()
    ws.ensure_built()
    trace = bool(args.trace)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        report = Report(workload, args.seed)
        try:
            if workload in CLI_WORKLOADS:
                sweep_workload(ws, report, workload, args.seed, args.seconds, trace)
            elif workload == "service-mixed":
                service_workload(ws, report, args.seed, args.seconds, trace)
            else:
                table1_workload(ws, report, args.seed, args.seconds, trace)
        except Exception as exc:  # noqa: BLE001 - a broken program is a failed run
            report.correct = False
            report.note(f"run aborted: {exc!r}")
        finally:
            for proc in ws.daemons:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        shutil.rmtree(ws.ops, ignore_errors=True)
        report.emit(trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
