"""Unit tests for the per-stage profiler and its ``--profile`` rendering."""

import threading

import numpy as np

from repro import nn
from repro.eval.reporting import format_profile
from repro.faults import FaultSpec
from repro.faults.executor import WorkCell, evaluate_cell
from repro.profiling import _STATE, count, profiled, stage
from repro.tensor import Tensor, manual_seed, no_grad


class TestProfiling:
    def test_stage_accumulates_only_when_profiled(self):
        with stage("attach"):
            pass  # no-op outside profiled()
        with profiled() as stages:
            with stage("attach"):
                pass
            with stage("attach"):
                pass
            assert stages["attach"] >= 0.0
        assert set(stages) == {"attach"}

    def test_stage_is_inert_outside_profiled(self):
        assert _STATE.stages is None
        with stage("metric"):
            assert _STATE.stages is None

    def test_nested_profiled_restores_outer_block(self):
        with profiled() as outer:
            with profiled() as inner:
                with stage("store"):
                    pass
            with stage("attach"):
                pass
        assert set(inner) == {"store"}
        assert set(outer) == {"attach"}
        assert _STATE.stages is None

    def test_profile_is_thread_local(self):
        seen = []

        def worker():
            with stage("transport"):
                pass
            seen.append(_STATE.stages)

        with profiled() as stages:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen == [None]
        assert stages == {}

    def test_cell_records_attach_and_metric(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(3, 2))
        model.eval()
        x = Tensor(np.ones((4, 3)))

        def evaluator(m):
            with no_grad():
                return float(m(x).data.sum())

        cell = WorkCell(0, 0, FaultSpec(kind="none", level=0.0))
        with profiled() as stages:
            evaluate_cell(model, evaluator, cell, base_seed=0)
        assert set(stages) == {"attach", "metric"}

    def test_format_profile_renders_breakdown(self):
        text = format_profile(
            {"attach": 0.01, "metric": 0.06, "store": 0.02, "transport": 0.01}
        )
        for label in ("attach", "metric", "store", "transport", "total"):
            assert label in text
        assert "100.0ms" in text  # the total of the four stages

    def test_format_profile_omits_absent_stages(self):
        """A local sweep records no transport: no misleading zero row."""
        text = format_profile({"attach": 0.01, "metric": 0.06})
        assert "attach" in text and "metric" in text
        assert "store" not in text and "transport" not in text

    def test_format_profile_handles_empty_stages(self):
        assert "no stages recorded" in format_profile({})

    def test_count_is_inert_outside_profiled(self):
        count("engine.passes")
        assert _STATE.stages is None
        with profiled() as stages:
            count("engine.passes")
            count("engine.instances", 12)
        assert stages == {"engine.passes": 1, "engine.instances": 12}

    def test_format_profile_renders_engine_counts(self):
        text = format_profile({
            "attach": 0.01, "metric": 0.06,
            "engine.passes": 4, "engine.instances": 48,
            "engine.per-cell.fault-free": 1, "engine.per-cell.over-budget": 2,
        })
        assert text.splitlines()[-1] == (
            "engine: 4 stacked passes (12.0 instances/pass), "
            "3 cells run one by one (1 fault-free, 2 over-budget)"
        )
        assert "engine:" not in format_profile({"attach": 0.01})

    def test_format_profile_renders_shared_cells(self):
        text = format_profile({
            "store": 0.01, "engine.passes": 2, "engine.instances": 24,
            "shared.spatial-spindrop = spindrop": 7,
        })
        assert text.splitlines()[-1] == (
            "engine: 2 stacked passes (12.0 instances/pass), "
            "0 cells run one by one, 7 cells shared (spatial-spindrop = spindrop)"
        )
