"""Text rendering of experiment results and campaign progress reporting."""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional, Sequence, TextIO

import numpy as np

from .cache import level_text
from .campaigns import RobustnessSweep


class ProgressMeter:
    """Throughput/ETA reporter for campaign cell grids.

    Plugs into the engine's ``on_cell_done(done, total)`` callback and
    renders an in-place line like ``campaign: 24/64 cells · 3.1 cells/s ·
    ETA 13s`` (rate-limited to ``min_interval`` seconds), ending with a
    one-line summary via :meth:`finish`.  Writes to stderr by default so
    result tables on stdout stay machine-readable.
    """

    def __init__(
        self,
        label: str = "campaign",
        stream: Optional[TextIO] = None,
        min_interval: float = 0.2,
    ):
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        # Clock starts on the first completed cell, so setup work before
        # the grid (model training, dataset synthesis) does not deflate
        # the reported throughput; the cells that callback reports took
        # unmeasured time, so the rate counts only the cells after them.
        self.started: Optional[float] = None
        self._done_at_start = 0
        self.done = 0
        self.total = 0
        self._base_done = 0
        self._base_total = 0
        self._seg_done = 0
        self._seg_total = 0
        self._last_render = 0.0

    def __call__(self, done: int, total: int) -> None:
        # ``done`` strictly increases within one cell grid, so a
        # non-increasing value means a new grid (next method) started:
        # fold the finished segment into the running totals.
        if done <= self._seg_done:
            self._base_done += self._seg_done
            self._base_total += self._seg_total
        self._seg_done, self._seg_total = done, total
        self.done = self._base_done + done
        self.total = self._base_total + total
        now = time.monotonic()
        if self.started is None:
            self.started, self._done_at_start = now, self.done
        if done < total and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        rate = self._rate(now)
        eta = (self.total - self.done) / rate if rate > 0 else float("inf")
        self.stream.write(
            f"\r{self.label}: {self.done}/{self.total} cells · "
            f"{rate:.2f} cells/s · ETA {eta:4.0f}s"
        )
        self.stream.flush()

    def _rate(self, now: float) -> float:
        """Cells per second finished since the clock started (0 before)."""
        elapsed = now - self.started if self.started is not None else 0.0
        timed = self.done - self._done_at_start
        return timed / elapsed if elapsed > 0 else 0.0

    def finish(self) -> str:
        """Clear the live line and return/emit the final summary."""
        now = time.monotonic()
        elapsed = now - self.started if self.started is not None else 0.0
        summary = (
            f"{self.label}: {self.done} cells in {elapsed:.1f}s "
            f"({self._rate(now):.2f} cells/s)"
        )
        self.stream.write("\r" + summary + " " * 16 + "\n")
        self.stream.flush()
        return summary

def format_profile(stages: Dict[str, float]) -> str:
    """Render the ``--profile`` per-stage wall-time breakdown.

    ``stages`` is the ``{stage: seconds}`` dict collected by
    :func:`repro.profiling.profiled`: ``attach`` (fault-pattern seed
    draws + hook installation), ``metric`` (the whole evaluator call:
    forwards, batch slicing, MC averaging, metric arithmetic), ``store``
    (content-addressed result-store lookups and atomic writes of campaign
    values) and ``transport`` (the campaign service's wire time: framing,
    pickling, socket I/O).  Store and transport run outside the
    evaluator, so service overhead is never attributed to ``metric``.

    Only stages that were actually recorded get a row, so a local sweep
    prints no ``transport`` zero.  When the campaign engine ran cells in
    this process, an ``engine:`` line follows: its stacked passes, the
    mean instances per pass, and the cells it ran per cell, by reason
    (the ``engine.*`` counters of :func:`repro.faults.executor.run_cells`),
    then the cells a method took from another method that builds the same
    network, by pair (the ``shared.*`` counters of
    :class:`~repro.eval.campaigns.SplitSweep`).
    """
    labels = ("attach", "metric", "store", "transport")
    present = [(label, stages[label]) for label in labels if label in stages]
    if not present:
        return "per-stage wall time: (no stages recorded)"
    total = sum(seconds for _, seconds in present)
    lines = ["per-stage wall time:"]
    for label, seconds in present:
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"  {label:<14} {seconds * 1000:9.1f}ms  {share:5.1f}%")
    lines.append(f"  {'total':<14} {total * 1000:9.1f}ms")
    passes = int(stages.get("engine.passes", 0))
    per_cell = {
        label.rpartition(".")[2]: int(n)
        for label, n in sorted(stages.items())
        if label.startswith("engine.per-cell.")
    }
    shared = {
        label.removeprefix("shared."): int(n)
        for label, n in sorted(stages.items()) if label.startswith("shared.")
    }
    if passes or per_cell or shared:
        instances = stages.get("engine.instances", 0) / passes if passes else 0.0
        reasons = ", ".join(f"{n} {reason}" for reason, n in per_cell.items())
        lines.append(
            f"engine: {passes} stacked passes ({instances:.1f} instances/pass), "
            f"{sum(per_cell.values())} cells run one by one"
            + (f" ({reasons})" if reasons else "")
            + "".join(f", {n} cells shared ({pair})"
                      for pair, n in shared.items())
        )
    return "\n".join(lines)


def format_service_stats(stats: Dict) -> str:
    """Render a campaign-service reply's accounting line.

    Cells served from the content-addressed store vs freshly computed
    (with the compute's throughput), redundant computations (cells whose
    store entry already existed; zero on a healthy repeat), and prior
    attempts of the request.
    """
    cells, seconds = stats["computed_cells"], stats["compute_seconds"]
    rate = cells / seconds if seconds > 0 else 0.0
    return (
        f"service: {stats['served_cells']} cells served from store, "
        f"{cells} computed in {seconds:.2f}s ({rate:.1f} cells/s), "
        f"{stats['redundant_cells']} redundant (retries={stats['retries']})"
    )


#: Paper column labels for the four methods.
METHOD_LABELS = {
    "conventional": "NN",
    "spindrop": "SpinDrop",
    "spatial-spindrop": "SpatialSpinDrop",
    "proposed": "Proposed",
    "proposed-conventional-order": "Proposed (conv. order)",
}


def format_table_row(
    topology: str,
    dataset: str,
    metric: str,
    precision: str,
    values: Dict[str, float],
    order: Sequence[str] = ("conventional", "spindrop", "spatial-spindrop", "proposed"),
) -> str:
    """One Table-I row: topology, dataset, metric, W/A, method columns."""
    cells = [f"{topology:<10}", f"{dataset:<18}", f"{metric:<9}", f"{precision:<5}"]
    for name in order:
        value = values.get(name)
        cells.append(f"{value:8.4f}" if value is not None else f"{'-':>8}")
    return " | ".join(cells)


def table_header(
    order: Sequence[str] = ("conventional", "spindrop", "spatial-spindrop", "proposed"),
) -> str:
    """Header line of the Table-I layout (one column per method)."""
    cells = [f"{'Topology':<10}", f"{'Dataset':<18}", f"{'Metric':<9}", f"{'W/A':<5}"]
    cells += [f"{METHOD_LABELS[n]:>8}" for n in order]
    line = " | ".join(cells)
    return line + "\n" + "-" * len(line)


def format_sweep(sweep: RobustnessSweep) -> str:
    """Render one fault sweep as a levels-by-methods text table.

    Each level is spelled as its store key spells it
    (:func:`~repro.eval.cache.level_text`), so two close levels never
    print the same label.
    """
    names = list(sweep.curves)
    header = f"{'level':>8} | " + " | ".join(
        f"{METHOD_LABELS.get(n, n):>22}" for n in names
    )
    lines = [
        f"{sweep.task_name} / {sweep.fault_kind} ({sweep.metric_name}"
        f"{'↑' if sweep.higher_is_better else '↓'})",
        header,
        "-" * len(header),
    ]
    levels = sweep.curves[names[0]].levels
    for i, level in enumerate(levels):
        cells = [f"{level_text(level):>8}"]
        for n in names:
            curve = sweep.curves[n]
            cells.append(f"{curve.means[i]:14.4f} ±{curve.stds[i]:5.4f}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def summarize_improvements(sweep: RobustnessSweep) -> str:
    """The paper's headline numbers: max improvement vs each baseline."""
    lines = []
    for baseline in sweep.curves:
        if baseline == "proposed":
            continue
        value = sweep.max_improvement_over(baseline)
        lines.append(
            f"max improvement of Proposed over {METHOD_LABELS.get(baseline, baseline)}: "
            f"{value:+.2f}%"
        )
    return "\n".join(lines)
