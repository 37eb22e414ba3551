"""Tests for stacked passes that span several severity levels.

The campaign engine stacks the cells of a sweep's same-kind severity
levels into flat passes, so one forward carries ``cells x mc_samples``
instances whose severities differ along the instance axis.  Its contract
is the chip/MC-batched contract: per-cell metrics must be
**bit-identical** to the per-cell oracle (the same per-cell
``SeedSequence`` streams, consumed in the serial draw order), and —
because the draw order is unchanged — the campaign-result cache must
keep serving entries written under the ``mc2`` RNG contract.  These
tests pin that contract across all four task topologies, the Bayesian
methods, and every fault kind, plus heterogeneous-severity fault
stacking, byte budgets that cap the cells per pass, and the grouping
logic.
"""

import numpy as np
import pytest

from repro.eval import build_task, run_robustness_sweep
from repro.eval.cache import RNG_CONTRACT
from repro.faults import (
    PER_CELL,
    FaultInjector,
    FaultSpec,
    MonteCarloCampaign,
    StackedWeightFault,
    WorkCell,
    additive_sweep,
    bitflip_sweep,
    evaluate_cell,
    evaluate_cells_stacked,
    multiplicative_sweep,
    uniform_sweep,
)
from repro.faults.executor import _kind_groups
from repro.models import proposed, spatial_spindrop, spindrop
from repro.quant.functional import fake_quantize_weight_record
from repro.tensor.chipbatch import mc_sample_axis
from tests.faults.stacking import (
    ENGINES,
    SWEEPS_BY_KIND,
    assert_stacked_identity,
    build_pair,
    chip_engine,
)


class TestStackedWeightFault:
    def _record(self, shape=(4, 5), bits=8, seed=0):
        weights = np.random.default_rng(seed).normal(size=shape)
        return fake_quantize_weight_record(weights, bits)

    @staticmethod
    def _hook(specs, seed_groups):
        """One stacked hook over every (spec, seed) cell, spec-major."""
        return StackedWeightFault([
            spec.build_weight_model(np.random.default_rng(seed))
            for spec, seeds in zip(specs, seed_groups)
            for seed in seeds
        ])

    def test_slices_match_per_scenario_generation(self):
        """Each scenario's slice equals its own serial model's output."""
        qw = self._record()
        specs = [
            FaultSpec(kind="additive", level=0.1),
            FaultSpec(kind="additive", level=0.4),
        ]
        seed_groups = [[11, 22, 33], [44, 55, 66]]
        stacked = self._hook(specs, seed_groups)(qw)
        assert stacked.shape == (6,) + qw.codes.shape
        for k, (spec, seeds) in enumerate(zip(specs, seed_groups)):
            for c, seed in enumerate(seeds):
                model = spec.build_weight_model(np.random.default_rng(seed))
                np.testing.assert_array_equal(stacked[3 * k + c], model(qw))

    def test_heterogeneous_severities_vary_along_axis(self):
        qw = self._record()
        specs = [
            FaultSpec(kind="uniform", level=0.05),
            FaultSpec(kind="uniform", level=0.5),
        ]
        stacked = self._hook(specs, [[1], [1]])(qw)
        # Same seed, different severity: same pattern, different magnitude.
        low = np.abs(stacked[0] - qw.codes)
        high = np.abs(stacked[1] - qw.codes)
        assert high.max() > low.max() * 2

    def test_repeats_along_sample_axis(self):
        qw = self._record()
        hook = self._hook([FaultSpec(kind="additive", level=0.2)], [[7, 8]])
        flat = hook(qw)
        with mc_sample_axis(3):
            expanded = hook(qw)
        assert expanded.shape == (6,) + qw.codes.shape
        np.testing.assert_array_equal(expanded, np.repeat(flat, 3, axis=0))

    def test_bitflip_multibit_stacks(self):
        qw = self._record(bits=4)
        specs = [
            FaultSpec(kind="bitflip", level=0.1),
            FaultSpec(kind="bitflip", level=0.3),
        ]
        stacked = self._hook(specs, [[1, 2], [3, 4]])(qw)
        assert stacked.shape == (4,) + qw.codes.shape
        for k, spec in enumerate(specs):
            for c, seed in enumerate([[1, 2], [3, 4]][k]):
                model = spec.build_weight_model(np.random.default_rng(seed))
                np.testing.assert_array_equal(stacked[2 * k + c], model(qw))


class TestScenarioBatchedWeightFault:
    """A rejected stacked attach leaves no weight-fault hook and draws no seed."""

    @staticmethod
    def _assert_rejected_cleanly(specs, rngs, match):
        model, _ = build_pair()
        injector = FaultInjector(model)
        injector.attach(FaultSpec(kind="bitflip", level=0.1), np.random.default_rng(9))
        assert any(layer.weight_fault is not None for layer in injector._weight_sites())
        states = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(ValueError, match=match):
            injector.attach_scenario_batched(specs, rngs)
        assert all(layer.weight_fault is None for layer in injector._weight_sites())
        assert [rng.bit_generator.state for rng in rngs] == states

    def test_rejects_mixed_kinds(self):
        specs = [
            FaultSpec(kind="additive", level=0.1),
            FaultSpec(kind="uniform", level=0.1),
        ]
        rngs = [np.random.default_rng(1), np.random.default_rng(2)]
        self._assert_rejected_cleanly(specs, rngs, "one fault kind")

    def test_rejects_degenerate_spec(self):
        specs = [
            FaultSpec(kind="bitflip", level=0.1),
            FaultSpec(kind="bitflip", level=0.0),
        ]
        rngs = [np.random.default_rng(1), np.random.default_rng(2)]
        self._assert_rejected_cleanly(specs, rngs, "non-degenerate")

    def test_rejects_mismatched_groups(self):
        specs = [FaultSpec(kind="additive", level=0.1)]
        rngs = [np.random.default_rng(1), np.random.default_rng(2)]
        self._assert_rejected_cleanly(specs, rngs, "one rng per spec")


class TestAttachScenarioBatched:
    def test_rejects_mixed_kinds(self):
        model, _ = build_pair()
        injector = FaultInjector(model)
        specs = [
            FaultSpec(kind="bitflip", level=0.1),
            FaultSpec(kind="additive", level=0.1),
        ]
        with pytest.raises(ValueError, match="one fault kind"):
            injector.attach_scenario_batched(
                specs, [np.random.default_rng(0), np.random.default_rng(1)]
            )

    def test_rejects_degenerate_scenarios(self):
        model, _ = build_pair()
        injector = FaultInjector(model)
        specs = [FaultSpec(kind="none", level=0.0)]
        with pytest.raises(ValueError, match="non-degenerate"):
            injector.attach_scenario_batched(specs, [np.random.default_rng(0)])

    def test_rejects_mismatched_groups(self):
        model, _ = build_pair()
        injector = FaultInjector(model)
        with pytest.raises(ValueError, match="one rng per spec"):
            injector.attach_scenario_batched(
                [FaultSpec(kind="bitflip", level=0.1)],
                [np.random.default_rng(0), np.random.default_rng(1)],
            )


class TestEvaluateCellsScenarioBatched:
    @pytest.mark.parametrize("kind", sorted(SWEEPS_BY_KIND), ids=str)
    def test_bit_identical_to_serial(self, kind):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND[kind]
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(specs)
            for run in range(4)
        ]
        serial = np.array(
            [evaluate_cell(model, evaluator, cell, base_seed=5) for cell in cells]
        )
        stacked = evaluate_cells_stacked(model, evaluator, cells, base_seed=5)
        np.testing.assert_array_equal(serial, stacked)

    def test_matches_per_scenario_batched_passes(self):
        model, evaluator = build_pair()
        specs = SWEEPS_BY_KIND["additive"]
        cell_groups = [
            [WorkCell(idx, run, spec) for run in range(3)]
            for idx, spec in enumerate(specs)
        ]
        per_scenario = np.concatenate(
            [
                evaluate_cells_stacked(model, evaluator, group, base_seed=2)
                for group in cell_groups
            ]
        )
        stacked = evaluate_cells_stacked(
            model, evaluator, [c for group in cell_groups for c in group],
            base_seed=2,
        )
        np.testing.assert_array_equal(per_scenario, stacked)

    def test_empty_groups(self):
        model, evaluator = build_pair()
        assert evaluate_cells_stacked(model, evaluator, [], 0).size == 0


class TestKindGrouping:
    def test_same_kind_scenarios_merge(self):
        specs = bitflip_sweep([0.0, 0.05, 0.1, 0.2])
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(specs)
            for run in range(1 if spec.kind == "none" else 3)
        ]
        groups = _kind_groups(cells)
        # fault-free singleton + one merged group of three severity levels
        assert [len(g) for g in groups] == [1, 3]

    def test_kind_change_splits(self):
        specs = [
            FaultSpec(kind="bitflip", level=0.1),
            FaultSpec(kind="bitflip", level=0.2),
            FaultSpec(kind="additive", level=0.1),
            FaultSpec(kind="additive", level=0.2),
        ]
        cells = [
            WorkCell(idx, run, spec)
            for idx, spec in enumerate(specs)
            for run in range(2)
        ]
        groups = _kind_groups(cells)
        assert [len(g) for g in groups] == [2, 2]

    def test_unequal_chip_counts_merge(self):
        spec_a = FaultSpec(kind="bitflip", level=0.1)
        spec_b = FaultSpec(kind="bitflip", level=0.2)
        cells = [WorkCell(0, run, spec_a) for run in range(3)]
        cells += [WorkCell(1, run, spec_b) for run in range(2)]
        assert _kind_groups(cells) == [[(0, 3), (3, 5)]]

    def test_single_cell_scenarios_merge(self):
        spec = FaultSpec(kind="bitflip", level=0.1)
        cells = [WorkCell(0, 0, spec), WorkCell(1, 0, spec)]
        assert _kind_groups(cells) == [[(0, 1), (1, 2)]]

    def test_fault_free_levels_stay_alone(self):
        cells = [
            WorkCell(0, 0, FaultSpec(kind="bitflip", level=0.0)),
            WorkCell(1, 0, FaultSpec(kind="none", level=0.0)),
            WorkCell(2, 0, FaultSpec(kind="bitflip", level=0.1)),
        ]
        assert _kind_groups(cells) == [[(0, 1)], [(1, 2)], [(2, 3)]]


class TestCampaignPlumbing:
    @pytest.mark.parametrize("scenario_limit", [1, 2, 3])
    @pytest.mark.parametrize("chip_limit", [None, 2])
    def test_limits_are_invisible(self, scenario_limit, chip_limit):
        """Budgets of ``scenario_limit`` x ``chip_limit`` cells (4 chips
        for ``None``) cut the passes; values never move."""
        model, evaluator = build_pair()
        specs = bitflip_sweep([0.0, 0.05, 0.1, 0.2])
        serial = MonteCarloCampaign(
            model, evaluator, n_runs=4, base_seed=3, engine=PER_CELL
        ).sweep(specs)
        limited = MonteCarloCampaign(
            model,
            evaluator,
            n_runs=4,
            base_seed=3,
            engine=chip_engine(
                model, evaluator, scenario_limit * (chip_limit or 4)
            ),
        ).sweep(specs)
        for s, b in zip(serial, limited):
            np.testing.assert_array_equal(s.values, b.values)

    def test_progress_counts_every_cell(self):
        model, evaluator = build_pair()
        specs = bitflip_sweep([0.0, 0.1, 0.2])
        seen = []
        MonteCarloCampaign(
            model, evaluator, n_runs=3, base_seed=0, engine=ENGINES["batched"]
        ).sweep(specs, on_cell_done=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (7, 7)  # 1 fault-free + 2 x 3 chips
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)


class TestTaskTopologyIdentity:
    """Scenario-batched == per-cell oracle on all four tiny-task topologies."""

    # image / ResNet-18: binary weights, variation routes to activations
    def test_image_binary_bitflip_proposed(self):
        assert_stacked_identity(
            "image", proposed(), bitflip_sweep([0.0, 0.05, 0.1]), n_runs=2
        )

    def test_image_activation_variation_spindrop(self):
        assert_stacked_identity(
            "image", spindrop(), additive_sweep([0.0, 0.2, 0.4]), n_runs=2
        )

    # audio / M5: 8-bit conv1d
    def test_audio_multibit_bitflip_proposed(self):
        assert_stacked_identity("audio", proposed(), bitflip_sweep([0.0, 0.05, 0.1]))

    def test_audio_additive_spatial_spindrop(self):
        assert_stacked_identity(
            "audio", spatial_spindrop(), additive_sweep([0.0, 0.1, 0.2])
        )

    def test_audio_stuck_at_proposed(self):
        assert_stacked_identity(
            "audio",
            proposed(),
            [
                FaultSpec(kind="none", level=0.0),
                FaultSpec(kind="stuck", level=0.1, stuck_to="zero"),
                FaultSpec(kind="stuck", level=0.2, stuck_to="high"),
            ],
        )

    # co2 / LSTM: 8-bit recurrent cells, frozen (variational) masks
    def test_lstm_uniform_proposed(self):
        assert_stacked_identity("co2", proposed(), uniform_sweep([0.0, 0.1, 0.2, 0.4]))

    def test_lstm_multiplicative_spindrop(self):
        assert_stacked_identity(
            "co2", spindrop(), multiplicative_sweep([0.0, 0.2, 0.4])
        )

    def test_lstm_drift_proposed(self):
        assert_stacked_identity(
            "co2",
            proposed(),
            [
                FaultSpec(kind="none", level=0.0),
                FaultSpec(kind="drift", level=24.0),
                FaultSpec(kind="drift", level=100.0),
            ],
        )

    # vessels / U-Net: binary weights + PACT activations, group norm
    def test_unet_bitflip_proposed(self):
        assert_stacked_identity(
            "vessels", proposed(), bitflip_sweep([0.0, 0.05, 0.1]), n_runs=2
        )

    def test_unet_additive_proposed(self):
        assert_stacked_identity(
            "vessels", proposed(), additive_sweep([0.0, 0.2, 0.3]), n_runs=2
        )


class TestCacheContract:
    def test_rng_contract_not_bumped(self):
        """Scenario batching must not invalidate mc2-era campaign caches."""
        assert RNG_CONTRACT == "mc2"

    def test_scenario_batched_served_from_serial_cache(self, isolated_cache):
        """A serial-written cache satisfies a scenario-batched sweep."""
        task = build_task("audio", preset="tiny")
        specs = bitflip_sweep([0.0, 0.05, 0.1])
        kwargs = dict(preset="tiny", n_runs=3)
        serial = run_robustness_sweep(
            task, [proposed()], specs, executor="serial", **kwargs
        )
        campaign_files = sorted((isolated_cache / "store").rglob("*.npz"))
        assert campaign_files  # serial run populated the store
        scenario = run_robustness_sweep(
            task, [proposed()], specs, engine=ENGINES["batched"], **kwargs
        )
        np.testing.assert_array_equal(
            serial.curves["proposed"].means, scenario.curves["proposed"].means
        )
        # Same keys: the scenario-batched run wrote nothing new.
        assert sorted((isolated_cache / "store").rglob("*.npz")) == campaign_files

    def test_fresh_scenario_batched_matches_fresh_serial(self, isolated_cache):
        task = build_task("audio", preset="tiny")
        specs = bitflip_sweep([0.0, 0.05, 0.1])
        kwargs = dict(preset="tiny", n_runs=3, use_cache=False)
        serial = run_robustness_sweep(
            task, [proposed()], specs, executor="serial", **kwargs
        )
        scenario = run_robustness_sweep(
            task, [proposed()], specs, engine=ENGINES["batched"], **kwargs
        )
        np.testing.assert_array_equal(
            serial.curves["proposed"].means, scenario.curves["proposed"].means
        )
