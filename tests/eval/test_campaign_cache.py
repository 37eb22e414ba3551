"""Tests for the campaign-result cache and cached/resumed sweeps."""

import numpy as np
import pytest

from repro.eval import (
    baseline_metrics,
    build_task,
    campaign_key,
    clear_memory_cache,
    result_store,
    run_robustness_sweep,
)
from repro.faults import FaultSpec, bitflip_sweep
from repro.models import proposed


class TestCampaignValueCache:
    def _key(self, **overrides):
        task = build_task("audio", preset="tiny")
        defaults = dict(
            task=task,
            method=proposed(),
            spec=FaultSpec(kind="bitflip", level=0.1),
            n_runs=4,
            samples=2,
            seed=0,
            max_eval_samples=None,
        )
        defaults.update(overrides)
        return campaign_key(**defaults)

    def test_round_trip(self, isolated_cache):
        key = self._key()
        assert result_store().get(key) is None
        values = np.array([0.25, 0.5, 0.75, 1.0])
        result_store().put(key, values)
        np.testing.assert_array_equal(result_store().get(key), values)
        # Survives dropping the in-memory layer (disk hit).
        clear_memory_cache()
        np.testing.assert_array_equal(result_store().get(key), values)

    def test_loaded_values_are_copies(self, isolated_cache):
        key = self._key()
        result_store().put(key, np.array([1.0, 2.0]))
        loaded = result_store().get(key)
        loaded[0] = -99.0
        assert result_store().get(key)[0] == 1.0

    def test_key_distinguishes_every_campaign_knob(self, isolated_cache):
        base = self._key()
        assert self._key(n_runs=8) != base
        assert self._key(seed=1) != base
        assert self._key(samples=4) != base
        assert self._key(max_eval_samples=50) != base
        assert self._key(spec=FaultSpec(kind="bitflip", level=0.2)) != base
        assert self._key(spec=FaultSpec(kind="additive", level=0.1)) != base
        assert self._key(method=proposed(p=0.5)) != base
        # Closer than ``:g``'s six significant digits: still its own key.
        assert self._key(spec=FaultSpec(kind="bitflip", level=0.1000001)) != base

    def test_round_tripping_levels_keep_their_short_key(self, isolated_cache):
        for level in (0.0, 0.1, 0.05, 1e-05, 0.123456):
            spec = FaultSpec(kind="bitflip", level=level)
            assert f"_l{level:g}_" in self._key(spec=spec)

    def test_corrupt_disk_entry_is_a_miss(self, isolated_cache):
        key = self._key()
        result_store().put(key, np.array([1.0]))
        clear_memory_cache()
        path = result_store().address(key)
        path.write_bytes(b"not a numpy file")
        assert result_store().get(key) is None
        assert not path.exists()  # corrupt entry evicted

    def test_stray_legacy_campaign_file_is_ignored(self, isolated_cache):
        """A ``campaigns/<key>.npy`` under the cache dir is not a hit."""
        key = self._key()
        legacy = isolated_cache / "campaigns"
        legacy.mkdir()
        np.save(legacy / f"{key}.npy", np.array([2.5]))
        clear_memory_cache()
        assert result_store().get(key) is None
        assert not result_store().address(key).exists()


class TestSweepCaching:
    def _sweep(self, cell_log, use_cache=True, n_runs=2):
        task = build_task("audio", preset="tiny")
        return run_robustness_sweep(
            task,
            [proposed()],
            bitflip_sweep([0.0, 0.2]),
            preset="tiny",
            n_runs=n_runs,
            samples=2,
            use_cache=use_cache,
            on_cell_done=lambda done, total: cell_log.append(done),
        )

    def test_second_run_is_served_from_cache(self, isolated_cache):
        first_cells, second_cells = [], []
        first = self._sweep(first_cells)
        second = self._sweep(second_cells)
        assert first_cells  # fresh run simulated cells
        assert second_cells == []  # cached run simulated none
        np.testing.assert_array_equal(
            first.curves["proposed"].means, second.curves["proposed"].means
        )
        np.testing.assert_array_equal(
            first.curves["proposed"].stds, second.curves["proposed"].stds
        )

    def test_cache_survives_process_memory_loss(self, isolated_cache):
        first_cells, second_cells = [], []
        first = self._sweep(first_cells)
        clear_memory_cache()  # simulate a fresh process (disk cache kept)
        second = self._sweep(second_cells)
        assert second_cells == []
        np.testing.assert_array_equal(
            first.curves["proposed"].means, second.curves["proposed"].means
        )

    def test_no_cache_recomputes_identical_values(self, isolated_cache):
        first_cells, forced_cells = [], []
        first = self._sweep(first_cells)
        forced = self._sweep(forced_cells, use_cache=False)
        assert forced_cells  # bypassed the cache
        np.testing.assert_array_equal(
            first.curves["proposed"].means, forced.curves["proposed"].means
        )

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("n_runs", 0, "n_runs must be a positive", id="n_runs"),
        pytest.param("samples", 0, "samples must be a positive", id="samples"),
        # bool is an Integral: True must not pass as one chip run.
        pytest.param("n_runs", True, "n_runs must be a positive",
                     id="n_runs-bool"),
        pytest.param("samples", True, "samples must be a positive",
                     id="samples-bool"),
        # A zero or negative cap would divide by zero inside the metric.
        pytest.param("max_eval_samples", 0, "max_eval_samples must be",
                     id="max_eval_samples-0"),
        pytest.param("max_eval_samples", -5, "max_eval_samples must be",
                     id="max_eval_samples-negative"),
    ])
    def test_empty_campaign_is_rejected(
        self, isolated_cache, field, value, message
    ):
        with pytest.raises(ValueError, match=message):
            run_robustness_sweep(
                build_task("audio", preset="tiny"), [proposed()],
                bitflip_sweep([0.0, 0.2]), preset="tiny", **{field: value},
            )
        assert len(result_store()) == 0

    def test_baseline_metrics_is_the_one_chip_fault_free_sweep(
        self, isolated_cache
    ):
        task = build_task("audio", preset="tiny")
        methods = [proposed()]
        sweep = run_robustness_sweep(
            task, methods, [FaultSpec(kind="none", level=0.0)],
            preset="tiny", n_runs=1, max_eval_samples=None, use_cache=False,
        )
        row = baseline_metrics(task, methods, preset="tiny", use_cache=False)
        assert row == {"proposed": sweep.curves["proposed"].clean}
        before = result_store().snapshot()
        assert baseline_metrics(task, methods, preset="tiny") == row
        after = result_store().snapshot()
        # Served from the entry the sweep wrote: one hit, nothing else.
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]
        assert after["puts"] == before["puts"]

    def test_changing_n_runs_invalidates(self, isolated_cache):
        first_cells, second_cells = [], []
        self._sweep(first_cells, n_runs=2)
        self._sweep(second_cells, n_runs=3)
        assert second_cells  # different grid shape -> cache miss

