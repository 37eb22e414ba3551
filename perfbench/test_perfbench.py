"""Tests of the benchmark's own arithmetic and tracer.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pools  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, pct", [(20, 50), (21, 52), (50, 80), (100, 90), (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    got_pct, value, beyond = run.tail_percentile(samples)
    assert got_pct == pct
    assert beyond >= 10
    assert sum(1 for s in samples if s > value) == beyond
    # One percentile higher would leave fewer than ten beyond.
    if pct < 99:
        rank = -(-(pct + 1) * n // 100)
        assert n - rank < 10


def test_tail_percentile_needs_twenty_samples():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile([]) is None


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    inner = tracer.wrap(lambda: clock.advance(2.0), "inner")

    def body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(3.0)

    tracer.wrap(body, "outer")()
    spans = {(r[0], r[3]) for r in tracer.records}
    assert [r[0] for r in tracer.records] == ["inner", "inner", "outer"]
    assert ("inner", 2.0) in spans
    assert ("outer", 4.0) in spans  # 8 s long, 4 s of it in children
    # Self times partition the outermost span.
    assert sum(r[3] for r in tracer.records) == 8.0


def test_nested_same_layer_spans_count_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    calls = []

    def conv(depth):
        calls.append(depth)
        clock.advance(1.0)
        if depth:
            traced_conv(depth - 1)  # e.g. conv2d folding a chip axis

    traced_conv = tracer.wrap(conv, "conv2d", layer="conv")
    traced_conv1d = tracer.wrap(lambda: traced_conv(1), "conv1d", layer="conv")
    traced_conv1d()
    assert calls == [1, 0]
    assert [(r[0], r[3]) for r in tracer.records] == [("conv1d", 2.0)]


def test_spans_are_per_thread():
    tracer = tracing.Tracer()
    worker = tracer.wrap(lambda: time.sleep(0.05), "work", layer="L")

    def supervise():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    tracer.wrap(supervise, "supervise", layer="L")()
    records = {r[0]: r for r in tracer.records}
    # Same layer, other thread: still its own span, and not a child.
    assert set(records) == {"work", "supervise"}
    assert records["work"][4] != records["supervise"][4]
    sup = records["supervise"]
    assert sup[3] == pytest.approx(sup[2] - sup[1])


def test_counter_values_and_exceptions():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    sized = tracer.wrap(lambda n: list(range(n)), "get",
                        value=lambda a, k, result, s: len(result))
    assert sized(3) == [0, 1, 2]

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert [(r[0], r[3], r[5]) for r in tracer.records] == [
        ("get", 0.0, 3), ("boom", 1.0, None)
    ]


# ----------------------------------------------------------------------
# Unattributed time and per-layer aggregation
# ----------------------------------------------------------------------
def test_unattributed_is_wall_minus_startup_and_self_times():
    assert run.unattributed(10.0, 1.0, [2.0, 3.0]) == 4.0
    assert run.unattributed(5.0, 0.0, []) == 5.0


def test_unattributed_of_a_traced_op_is_time_outside_every_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    leaf = tracer.wrap(lambda: clock.advance(1.5), "leaf")
    root = tracer.wrap(lambda: (clock.advance(0.5), leaf()), "root")
    clock.advance(0.25)  # start-up
    root()
    clock.advance(0.75)  # teardown, outside every span
    selfs = run.self_seconds(tracer.records)
    assert run.unattributed(clock.now, 0.25, selfs) == pytest.approx(0.75)


def test_layer_metrics_are_per_op_with_ratios():
    records = [
        ("eval.store.get", 0.0, 1.0, 1.0, 1, 1),
        ("eval.store.get", 1.0, 2.0, 1.0, 1, 0),
        ("eval.store.put", 2.0, 3.0, 1.0, 1, 64),
        ("faults.attach", 0.0, 1.0, 1.0, 1, [1, 0]),
        ("faults.attach", 0.0, 1.0, 1.0, 1, [0, 1]),
        ("faults.attach", 0.0, 1.0, 1.0, 1, None),
        ("tensor.plan.call", 0.0, 1.0, 0.5, 1, None),
        ("tensor.plan.call", 0.0, 1.0, 0.5, 1, None),
        ("tensor.plan.replay", 0.0, 1.0, 0.5, 1, None),
        ("tensor.conv.conv2d", 0.0, 1.0, 1.0, 1, 3e9),
    ]
    metrics = run.layer_metrics(records, n_ops=2)
    assert metrics["eval.store.get_s"] == 1.0
    assert metrics["eval.store.hits"] == 0.5
    assert metrics["eval.store.misses"] == 0.5
    assert metrics["eval.store.hit_ratio"] == 0.5
    assert metrics["eval.store.put_bytes"] == 32
    assert metrics["faults.attach_calls"] == 1.5
    assert metrics["faults.program_hit_ratio"] == 0.5
    assert metrics["tensor.plan.replay_ratio"] == 0.5
    assert metrics["tensor.conv.conv2d_gflop"] == 1.5
    assert metrics["train.fit_s"] == 0.0


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_inputs_are_a_function_of_the_seed():
    assert pools.sweep_levels(7) == pools.sweep_levels(7)
    assert pools.sweep_levels(7) != pools.sweep_levels(8)
    levels = pools.sweep_levels(7)
    assert levels[0] == 0.0 and len(set(levels)) == 4
    assert all(0.0 < level <= 0.2 for level in levels[1:])
    assert pools.service_requests(3, 50) == pools.service_requests(3, 50)


def test_service_levels_keep_their_scenario_position():
    sent = set()
    requests = pools.service_requests(5, 99)
    for start in range(0, len(requests), len(pools.SERVICE_MIX)):
        block = [task for task, _ in requests[start:start + len(pools.SERVICE_MIX)]]
        assert sorted(block) == sorted(pools.SERVICE_MIX)
    for index, (task, levels) in enumerate(requests):
        assert levels[0] == 0.0
        for position, level in enumerate(levels[1:], start=1):
            assert level in pools.pool(position)
        repeats = sum((task, position, level) in sent
                      for position, level in enumerate(levels[1:], start=1))
        if any(t == task for t, _ in requests[:index]):
            assert repeats == 1  # half the scenarios, counting level 0
        sent.update((task, position, level)
                    for position, level in enumerate(levels[1:], start=1))
    grids = [set(pools.pool(position)) for position in range(1, pools.POSITIONS)]
    assert not (grids[0] & grids[1] or grids[0] & grids[2] or grids[1] & grids[2])
