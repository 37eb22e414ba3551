"""Tests for the experiment harness (tasks, evaluators, cache, reporting)."""

import numpy as np
import pytest

from repro.eval import (
    METHOD_LABELS,
    activation_shift_experiment,
    baseline_metrics,
    build_task,
    capture_weighted_sums,
    clear_memory_cache,
    format_sweep,
    format_table_row,
    mc_runs,
    mc_samples,
    run_robustness_sweep,
    summarize_improvements,
    table_header,
    trained_model,
)
from repro.eval.cache import _method_key
from repro.eval.campaigns import MethodCurve, RobustnessSweep
from repro.eval.tasks import active_preset
from repro.faults import bitflip_sweep
from repro.models import conventional, proposed, spindrop
from repro.tensor import Tensor, manual_seed


class TestTaskRegistry:
    @pytest.mark.parametrize("name", ["image", "audio", "co2", "vessels"])
    def test_tiny_tasks_build_and_train(self, name):
        task = build_task(name, preset="tiny")
        model = task.train_model(proposed(), seed=0)
        assert model.num_parameters() > 0

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError):
            build_task("protein-folding")

    def test_build_model_deterministic(self):
        task = build_task("audio", preset="tiny")
        m1 = task.build_model(proposed(), seed=3)
        m2 = task.build_model(proposed(), seed=3)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_presets_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRESET", "enormous")
        with pytest.raises(ValueError):
            active_preset()

    def test_repro_full_selects_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert active_preset() == "paper"

    def test_mc_settings_scale_with_preset(self):
        assert mc_runs("tiny") < mc_runs("small") < mc_runs("paper") == 100
        assert mc_samples("tiny") <= mc_samples("small") < mc_samples("paper")


class TestModelCache:
    def test_cache_round_trip(self, isolated_cache):
        task = build_task("audio", preset="tiny")
        m1 = trained_model(task, proposed(), "tiny", seed=0)
        files = list(isolated_cache.glob("*.npz"))
        assert len(files) == 1
        # Second call: in-memory hit returns the same object.
        assert trained_model(task, proposed(), "tiny", seed=0) is m1
        # After clearing memory, the disk checkpoint is used (same weights).
        clear_memory_cache()
        m2 = trained_model(task, proposed(), "tiny", seed=0)
        assert m2 is not m1
        np.testing.assert_array_equal(
            m1.state_dict()["classifier.weight"], m2.state_dict()["classifier.weight"]
        )

    def test_damaged_checkpoint_is_retrained(self, isolated_cache):
        task = build_task("audio", preset="tiny")
        fresh = trained_model(task, proposed(), "tiny", seed=0).state_dict()
        (path,) = isolated_cache.glob("*.npz")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # a writer killed mid-save
        clear_memory_cache()
        model = trained_model(task, proposed(), "tiny", seed=0)
        state = model.state_dict()
        assert state.keys() == fresh.keys()
        for name in fresh:
            np.testing.assert_array_equal(state[name], fresh[name])
        clear_memory_cache()
        reloaded = trained_model(task, proposed(), "tiny", seed=0).state_dict()
        for name in fresh:
            np.testing.assert_array_equal(reloaded[name], fresh[name])

    def test_different_methods_cached_separately(self, isolated_cache):
        task = build_task("audio", preset="tiny")
        trained_model(task, proposed(), "tiny")
        trained_model(task, conventional(), "tiny")
        assert len(list(isolated_cache.glob("*.npz"))) == 2


class TestSweepAndMetrics:
    def test_robustness_sweep_structure(self, isolated_cache):
        task = build_task("audio", preset="tiny")
        methods = [conventional(), proposed()]
        sweep = run_robustness_sweep(
            task,
            methods,
            bitflip_sweep([0.0, 0.2]),
            preset="tiny",
            n_runs=2,
            samples=2,
        )
        assert set(sweep.curves) == {"conventional", "proposed"}
        curve = sweep.curves["proposed"]
        assert curve.levels.tolist() == [0.0, 0.2]
        assert len(curve.means) == 2
        assert curve.clean == curve.means[0]
        assert np.isfinite(sweep.improvement_over("conventional")).all()

    def test_methods_sharing_a_name_are_rejected(self, isolated_cache):
        """Curves are keyed by name: two spindrop configurations would
        collapse into one curve, so the sweep refuses them up front."""
        task = build_task("co2", preset="tiny")
        methods = [spindrop(), spindrop(epochs_multiplier=1.0)]
        with pytest.raises(ValueError) as excinfo:
            run_robustness_sweep(
                task, methods, bitflip_sweep([0.0, 0.1]), preset="tiny",
                n_runs=2,
            )
        keys = [_method_key(method) for method in methods]
        assert keys[0] != keys[1]
        assert (
            f"methods {keys[0]} and {keys[1]} share the name 'spindrop'"
            in str(excinfo.value)
        )
        assert not list(isolated_cache.rglob("*.npz"))  # nothing trained

    def test_baseline_metrics_keys(self, isolated_cache):
        task = build_task("co2", preset="tiny")
        row = baseline_metrics(task, [conventional(), proposed()], preset="tiny")
        assert set(row) == {"conventional", "proposed"}
        assert all(v >= 0 for v in row.values())


class TestReporting:
    def test_table_row_formatting(self):
        row = format_table_row(
            "ResNet-18",
            "synthetic-images",
            "acc",
            "1/1",
            {"conventional": 0.9, "proposed": 0.95},
        )
        assert "ResNet-18" in row and "0.9500" in row and "-" in row

    def test_table_header_mentions_methods(self):
        header = table_header()
        for label in ("NN", "SpinDrop", "SpatialSpinDrop", "Proposed"):
            assert label in header

    def test_method_labels_cover_all(self):
        from repro.models import METHOD_NAMES

        assert set(METHOD_NAMES) <= set(METHOD_LABELS)

    def test_format_sweep_renders(self, isolated_cache):
        task = build_task("audio", preset="tiny")
        sweep = run_robustness_sweep(
            task,
            [proposed()],
            bitflip_sweep([0.0, 0.1]),
            preset="tiny",
            n_runs=2,
            samples=2,
        )
        text = format_sweep(sweep)
        assert "audio" in text and "0.1" in text

    @pytest.mark.parametrize("levels, labels", [
        ([0.0, 0.1234561, 0.1234564], ["0", "0.1234561", "0.1234564"]),
        ([0.0, 0.05, 0.1, 0.2], ["0", "0.05", "0.1", "0.2"]),
    ])
    def test_format_sweep_spells_levels_like_store_keys(self, levels, labels):
        """Close levels get distinct labels; default levels print as ``:g``."""
        curve = MethodCurve(
            method=proposed(), levels=np.asarray(levels),
            means=np.zeros(len(levels)), stds=np.zeros(len(levels)),
        )
        sweep = RobustnessSweep(
            task_name="co2", metric_name="rmse", higher_is_better=False,
            fault_kind="bitflip", curves={"proposed": curve},
        )
        rows = format_sweep(sweep).splitlines()[3:]
        assert [row.split("|")[0].strip() for row in rows] == labels

    def test_improvements_ignore_the_fault_free_level(self):
        """Proposed wins only fault-free: the summary prints a negative
        largest improvement, not the fault-free gap."""
        levels = np.array([0.0, 0.1, 0.2])

        def curve(method, means):
            return MethodCurve(method=method, levels=levels,
                               means=np.array(means), stds=np.zeros(3))

        sweep = RobustnessSweep(
            task_name="audio", metric_name="accuracy", higher_is_better=True,
            fault_kind="bitflip", curves={
                "conventional": curve(conventional(), [0.50, 0.40, 0.20]),
                "proposed": curve(proposed(), [0.60, 0.36, 0.19]),
            },
        )
        np.testing.assert_allclose(
            sweep.faulty_improvements("conventional"), [-10.0, -5.0]
        )
        assert summarize_improvements(sweep) == (
            "improvement of Proposed over NN at faulty levels: "
            "largest -5.00%, smallest -10.00%"
        )

    def test_improvements_without_a_faulty_level(self):
        curves = {
            name: MethodCurve(method=method, levels=np.array([0.0]),
                              means=np.array([0.5]), stds=np.zeros(1))
            for name, method in (("conventional", conventional()),
                                 ("proposed", proposed()))
        }
        sweep = RobustnessSweep(
            task_name="audio", metric_name="accuracy", higher_is_better=True,
            fault_kind="none", curves=curves,
        )
        assert summarize_improvements(sweep) == (
            "improvement of Proposed over NN: no faulty level"
        )


class TestProgressMeter:
    def _meter(self):
        import io

        from repro.eval import ProgressMeter

        stream = io.StringIO()
        return ProgressMeter(label="bench", stream=stream, min_interval=0.0), stream

    def test_tracks_throughput_and_eta(self):
        meter, stream = self._meter()
        meter(1, 4)
        meter(4, 4)
        out = stream.getvalue()
        assert "bench: 4/4 cells" in out
        assert "cells/s" in out and "ETA" in out

    def test_rate_counts_only_cells_after_the_clock_starts(self, monkeypatch):
        """The first callback starts the clock; the cells it reports took
        unmeasured time, so they count in ``done`` but not in the rate."""
        from repro.eval import reporting

        clock = iter([100.0, 102.0, 104.0])
        monkeypatch.setattr(reporting.time, "monotonic", lambda: next(clock))
        meter, stream = self._meter()
        meter(3, 12)  # a 3-chip pass finishes: the clock starts
        assert "0.00 cells/s" in stream.getvalue()
        meter(7, 12)  # 4 more cells in 2 s
        assert stream.getvalue().endswith(
            "bench: 7/12 cells · 2.00 cells/s · ETA    2s"
        )
        assert meter.finish().endswith("(1.00 cells/s)")  # 4 cells in 4 s

    def test_accumulates_across_method_grids(self):
        meter, stream = self._meter()
        for done in (1, 2, 3):  # first method's grid
            meter(done, 3)
        for done in (1, 2):  # next method starts a fresh grid
            meter(done, 2)
        assert meter.done == 5 and meter.total == 5
        summary = meter.finish()
        assert "5 cells" in summary
        assert stream.getvalue().endswith("\n")


class TestActivationCapture:
    def test_capture_weighted_sums(self, rng):
        manual_seed(0)
        task = build_task("audio", preset="tiny")
        model = task.build_model(proposed())
        x = Tensor(task.test_set.inputs[:4])
        values = capture_weighted_sums(model, x, layer_index=0)
        assert values.ndim == 1 and values.size > 0

    def test_capture_requires_quant_layers(self, rng):
        from repro import nn

        model = nn.Sequential(nn.Linear(4, 2))
        with pytest.raises(ValueError):
            capture_weighted_sums(model, Tensor(rng.normal(size=(2, 4))))

    def test_activation_shift_experiment(self, rng):
        manual_seed(0)
        task = build_task("audio", preset="tiny")
        model = task.train_model(proposed())
        x = Tensor(task.test_set.inputs[:8])
        results = activation_shift_experiment(
            model, x, flip_rates=(0.0, 0.2), layer_index=1, bins=20
        )
        assert set(results) == {0.0, 0.2}
        clean, faulty = results[0.0], results[0.2]
        assert clean.label == "Fault-Free"
        assert faulty.label == "20% Bit Flips"
        # Faults widen the weighted-sum distribution (Fig. 1's message).
        assert faulty.std != clean.std
        assert clean.histogram.sum() == faulty.histogram.sum()
        assert np.isclose(
            (clean.density * np.diff(clean.bin_edges)).sum(), 1.0
        )
