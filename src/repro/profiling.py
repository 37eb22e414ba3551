"""Per-stage wall-time profiling (the CLI's ``--profile`` breakdown).

:func:`profiled` opens a collection block on the current thread;
:func:`stage` blocks anywhere below it (fault attach, the evaluator's
metric pass, result-store reads and writes, service transport) add their
wall time to it, and :func:`count` adds event counts (the campaign
engine's stacked passes and per-cell fallbacks) to the same dict.
:func:`add` folds in a whole dict collected elsewhere, such as by a
:func:`profiled` block in a worker process.
Outside a :func:`profiled` block all three are no-ops that allocate nothing,
so the hot path pays one thread-local read.  Rendering lives in
:func:`repro.eval.reporting.format_profile`.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterator, Optional

__all__ = ["add", "count", "profiled", "stage"]


class _ProfileState(threading.local):
    def __init__(self) -> None:
        self.stages: Optional[Dict[str, float]] = None


_STATE = _ProfileState()


@contextlib.contextmanager
def profiled() -> Iterator[Dict[str, float]]:
    """Collect per-stage wall time on this thread.

    Yields the accumulating ``{stage: seconds}`` dict (plus any
    :func:`count` totals under their own labels).  Nestable: an inner
    block collects into its own dict and restores the outer one on exit.
    """
    previous = _STATE.stages
    stages: Dict[str, float] = {}
    _STATE.stages = stages
    try:
        yield stages
    finally:
        _STATE.stages = previous


@contextlib.contextmanager
def stage(label: str) -> Iterator[None]:
    """Accumulate this block's wall time under ``label`` when profiling.

    No-op (and allocation-free) unless a :func:`profiled` block is active
    on this thread.  Nested stages each record their full span.
    """
    stages = _STATE.stages
    if stages is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        stages[label] = stages.get(label, 0.0) + time.perf_counter() - start


def count(label: str, n: float = 1) -> None:
    """Add ``n`` to the ``label`` counter when profiling; else a no-op."""
    stages = _STATE.stages
    if stages is not None:
        stages[label] = stages.get(label, 0) + n


def add(stages: Dict[str, float]) -> None:
    """Add every total of ``stages`` when profiling; else a no-op."""
    current = _STATE.stages
    if current is not None:
        for label, value in stages.items():
            current[label] = current.get(label, 0) + value
