"""The campaign engine's byte budget (``EngineConfig.max_batch_bytes``).

That every budget gives the per-cell oracle's bits on all four
topologies, methods and fault kinds is pinned in
``test_identity_matrix.py``.  The passes the engine picks must fit the
budget by its own estimate, cut flat lists of cells across scenario
boundaries, evaluate every cell exactly once, keep the binarized
ResNet-18 per cell at the default budget while stacking the LSTM, and
the estimate must track what one cell really allocates.  The footprint
an evaluator declares must be what one per-cell run of it puts through
the model.  Same-kind faulty scenarios group into one run of cells
(:func:`~repro.faults.executor._kind_groups`), and no budget's cut of
that run moves a value.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from repro.eval import build_task, make_evaluator, trained_model
from repro.eval.campaigns import campaign_eval_cap
from repro.eval.tasks import mc_runs, mc_samples
from repro.faults import (
    PER_CELL,
    EngineConfig,
    FaultSpec,
    MonteCarloCampaign,
    WorkCell,
    bitflip_sweep,
    evaluate_cell,
    run_cells,
)
from repro.faults import executor as executor_mod
from repro.faults.executor import Footprint, _kind_groups
from repro.models import conventional, proposed
from repro.profiling import profiled
from repro.tensor.chipbatch import active_chip_count
from tests.faults.stacking import build_pair, chip_engine

TASKS = ("co2", "audio", "image", "vessels")


def _pair(task_name, method, preset="tiny", samples=None):
    task = build_task(task_name, preset=preset)
    if preset == "tiny":
        model = trained_model(task, method, preset, seed=0)
    else:  # the footprint does not depend on the weights: skip training
        model = task.build_model(method, seed=0)
    evaluator = make_evaluator(
        task.name, task.test_set, method,
        mc_samples=samples or mc_samples(preset),
        max_samples=campaign_eval_cap(preset),
    )
    return model, evaluator


@pytest.fixture
def passes(monkeypatch):
    """Record the cell list of every stacked pass."""
    cell_lists = []
    stacked = executor_mod.evaluate_cells_stacked

    def recording(model, evaluator, cells, base_seed):
        cell_lists.append(list(cells))
        return stacked(model, evaluator, cells, base_seed)

    monkeypatch.setattr(executor_mod, "evaluate_cells_stacked", recording)
    return cell_lists


class TestPassShapes:
    def test_cells_per_pass_counts_whole_cells(self):
        footprint = Footprint(samples=3, instance_bytes=10)
        cell = 30
        assert footprint.cells_per_pass(0) == 0
        assert footprint.cells_per_pass(cell - 1) == 0
        assert footprint.cells_per_pass(cell) == 1
        assert footprint.cells_per_pass(4 * cell + 29) == 4
        assert footprint.cells_per_pass(None) is None

    @pytest.mark.parametrize("chips", [1, 2.5, 4, 9.5])
    def test_chosen_passes_fit_the_budget(self, passes, chips):
        model, evaluator = _pair("co2", proposed())
        specs = bitflip_sweep([0.0, 0.05, 0.1, 0.2])
        footprint = Footprint.of(model, evaluator)
        budget = int(chips * footprint.samples * footprint.instance_bytes)
        MonteCarloCampaign(
            model, evaluator, n_runs=3, engine=EngineConfig(budget)
        ).sweep(specs)
        assert passes
        for cells in passes:
            instances = len(cells) * footprint.samples
            assert instances * footprint.instance_bytes <= budget

    def test_default_budget_keeps_image_per_cell(self, passes):
        model, evaluator = _pair("image", proposed())
        cells = [WorkCell(0, 0, FaultSpec("none", 0.0))] + [
            WorkCell(1, run, FaultSpec("bitflip", 0.1))
            for run in range(mc_runs("tiny"))
        ]
        with profiled() as stages:
            run_cells(cells, 0, model=model, evaluator=evaluator)
        assert passes == []
        assert stages["engine.per-cell.fault-free"] == 1
        assert stages["engine.per-cell.over-budget"] == mc_runs("tiny")

    def test_default_budget_stacks_co2_small_chips(self, passes):
        model, evaluator = _pair("co2", proposed(), preset="small")
        cells = [
            WorkCell(1, run, FaultSpec("bitflip", 0.1))
            for run in range(mc_runs("small"))
        ]
        with profiled() as stages:
            run_cells(cells, 0, model=model, evaluator=evaluator)
        assert not any(key.startswith("engine.per-cell") for key in stages)
        assert passes and max(len(cells) for cells in passes) >= 2
        assert sum(len(cells) for cells in passes) == len(cells)
        assert Footprint.of(model, evaluator).samples == mc_samples("small")

    def test_unbounded_budget_makes_one_pass_per_kind_run(self, passes):
        """Same-kind scenarios share a pass; a fault-free cell runs per
        cell and ends the run."""
        model, evaluator = _pair("co2", proposed())
        cells = (
            [WorkCell(scenario, run, FaultSpec("bitflip", level))
             for scenario, level in ((1, 0.1), (2, 0.2)) for run in range(3)]
            + [WorkCell(0, 0, FaultSpec("none", 0.0))]
            + [WorkCell(3, run, FaultSpec("additive", 0.1)) for run in range(3)]
        )
        with profiled() as stages:
            values = run_cells(cells, 0, model=model, evaluator=evaluator,
                               engine=EngineConfig(None))
        assert passes == [cells[:6], cells[7:]]
        assert stages["engine.per-cell.fault-free"] == 1
        np.testing.assert_array_equal(values, run_cells(
            cells, 0, model=model, evaluator=evaluator, engine=PER_CELL
        ))


def _forward_inputs(model, evaluator, cell):
    """The input bytes of every root ``forward`` one per-cell run of
    ``cell`` makes; the model instance's ``forward`` is wrapped for that
    run only."""
    inputs = []
    forward = model.forward

    def recording(x, *args, **kwargs):
        inputs.append(np.asarray(getattr(x, "data", x)).nbytes)
        return forward(x, *args, **kwargs)

    model.forward = recording
    try:
        evaluate_cell(model, evaluator, cell, 0)
    finally:
        del model.forward
    return inputs


class TestFootprint:
    @pytest.mark.parametrize("task_name", TASKS)
    def test_estimate_tracks_a_per_cell_peak(self, task_name):
        """The instance estimate is within 2x of one per-cell peak."""
        model, evaluator = _pair(task_name, proposed())
        spec = FaultSpec("bitflip", 0.1)
        evaluate_cell(model, evaluator, WorkCell(0, 0, spec), 0)  # warm
        tracemalloc.start()
        try:
            evaluate_cell(model, evaluator, WorkCell(0, 1, spec), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        estimate = Footprint.of(model, evaluator).instance_bytes
        assert peak / 2 <= estimate <= 2 * peak

    @pytest.mark.parametrize("task_name, method, preset", [
        *((task_name, method, "tiny") for task_name in TASKS
          for method in (conventional(), proposed())),
        ("co2", proposed(), "small"),
    ], ids=lambda value: getattr(value, "name", value))
    def test_declared_footprint_is_what_a_cell_runs(
        self, task_name, method, preset
    ):
        """The evaluator's forwards per cell and largest input are what
        one per-cell run puts through the model's root ``forward``."""
        task = build_task(task_name, preset=preset)
        model = task.build_model(method, seed=0)  # weights do not matter
        evaluator = make_evaluator(
            task.name, task.test_set, method, mc_samples=mc_samples(preset),
            max_samples=campaign_eval_cap(preset),
        )
        inputs = _forward_inputs(
            model, evaluator, WorkCell(0, 0, FaultSpec("bitflip", 0.1))
        )
        assert evaluator.forwards_per_cell == len(inputs)
        assert evaluator.input_bytes == max(inputs)


def _cells_evaluated(evaluator, calls):
    """``evaluator``, recording how many cells each of its calls scores."""

    @functools.wraps(evaluator)  # keeps its declared footprint
    def counting(model):
        calls.append(active_chip_count() or 1)
        return evaluator(model)

    return counting


class TestFlatPasses:
    def test_unbounded_pass_evaluates_every_faulty_cell_once(self):
        model, evaluator = _pair("co2", proposed())
        calls = []
        counting = _cells_evaluated(evaluator, calls)
        cells = [
            WorkCell(scenario, run, FaultSpec("bitflip", level))
            for scenario, level in ((1, 0.1), (2, 0.2))
            for run in range(3)
        ]
        values = run_cells(cells, 0, model=model, evaluator=counting,
                           engine=EngineConfig(None))
        assert sum(calls) == len(cells)
        np.testing.assert_array_equal(values, run_cells(
            cells, 0, model=model, evaluator=evaluator, engine=PER_CELL
        ))

    @pytest.mark.parametrize("task_name, kind", [
        ("co2", "bitflip"),
        ("image", "additive"),  # binary ResNet-18: activation-noise hooks
    ])
    def test_pass_across_unequal_scenarios_matches_per_cell(
        self, passes, task_name, kind
    ):
        model, evaluator = _pair(task_name, proposed())
        cells = [
            WorkCell(scenario, run, FaultSpec(kind, level))
            for scenario, level, runs in ((1, 0.1, 3), (2, 0.3, 2))
            for run in range(runs)
        ]
        engine = chip_engine(model, evaluator, 2)
        values = run_cells(cells, 0, model=model, evaluator=evaluator,
                           engine=engine)
        assert cells[2:4] in passes  # one pass holds both scenarios
        np.testing.assert_array_equal(values, run_cells(
            cells, 0, model=model, evaluator=evaluator, engine=PER_CELL
        ))


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


class TestPassCutting:
    @pytest.mark.parametrize("chips", [1, 2, 3, 4, 6, 8, 12])
    def test_every_cut_gives_the_per_cell_values(self, chips):
        """A budget of ``chips`` cells cuts the run of 15 faulty cells
        (three levels x five chips) within and across scenarios; the
        micro-model's values never move."""
        model, evaluator = build_pair()
        specs = bitflip_sweep([0.0, 0.05, 0.1, 0.2])
        serial, limited = (
            MonteCarloCampaign(
                model, evaluator, n_runs=5, base_seed=3, engine=engine
            ).sweep(specs)
            for engine in (PER_CELL, chip_engine(model, evaluator, chips))
        )
        for s, b in zip(serial, limited):
            np.testing.assert_array_equal(s.values, b.values)
