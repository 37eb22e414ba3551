"""Tests for the campaign execution engine.

The engine's contract is that campaign values are bit-identical across
cell scheduling orders (per-cell vs stacked identity is pinned in
``test_identity_matrix.py``).  Campaigns here run on the per-cell
engine unless a test says otherwise.  The model includes a Dropout module
evaluated with Monte Carlo sampling, so the tests exercise the scoped-RNG
machinery that makes stochastic evaluation hermetic per cell — not just
the frozen fault patterns.
"""

import functools

import numpy as np
import pytest

from repro.faults import (
    PER_CELL,
    EngineConfig,
    FaultSpec,
    MonteCarloCampaign,
    WorkCell,
    bitflip_sweep,
    cell_rngs,
    evaluate_cell,
    run_cells,
)
from repro.faults import executor as executor_mod
from repro.tensor.chipbatch import active_chip_count
from tests.faults.stacking import build_pair


def _campaign(**kwargs):
    kwargs.setdefault("n_runs", 4)
    kwargs.setdefault("base_seed", 3)
    kwargs.setdefault("engine", PER_CELL)
    return MonteCarloCampaign(*build_pair(), **kwargs)


class TestCellSemantics:
    def test_submission_order_is_irrelevant(self):
        spec = FaultSpec(kind="bitflip", level=0.2)
        cells = [WorkCell(0, run, spec) for run in range(5)]
        model, evaluator = build_pair()
        forward = run_cells(
            cells, 3, model=model, evaluator=evaluator, engine=PER_CELL
        )
        backward = run_cells(
            list(reversed(cells)), 3, model=model, evaluator=evaluator,
            engine=PER_CELL,
        )
        np.testing.assert_array_equal(forward, backward[::-1])

    def test_evaluate_cell_is_hermetic(self):
        model, evaluator = build_pair()
        a = WorkCell(0, 0, FaultSpec(kind="bitflip", level=0.2))
        b = WorkCell(1, 3, FaultSpec(kind="additive", level=0.3))
        first = evaluate_cell(model, evaluator, a, base_seed=3)
        evaluate_cell(model, evaluator, b, base_seed=3)  # interleaved work
        again = evaluate_cell(model, evaluator, a, base_seed=3)
        assert first == again

    def test_cell_rng_streams_are_cell_specific(self):
        fault_a, eval_a = cell_rngs(0, scenario_index=0, run_index=0)
        fault_b, eval_b = cell_rngs(0, scenario_index=0, run_index=1)
        fault_a2, eval_a2 = cell_rngs(0, scenario_index=0, run_index=0)
        assert fault_a.integers(0, 2**63) == fault_a2.integers(0, 2**63)
        assert eval_a.integers(0, 2**63) == eval_a2.integers(0, 2**63)
        assert fault_a.integers(0, 2**63) != fault_b.integers(0, 2**63)

    def test_empty_grid(self):
        model, evaluator = build_pair()
        assert run_cells([], 0, model=model, evaluator=evaluator).size == 0


class TestValidation:
    def test_unknown_executor_rejected(self):
        """The engine has one knob, ``engine=``; ``executor=`` is gone."""
        model, evaluator = build_pair()
        for removed in ("serial", "batched", "thread"):
            with pytest.raises(TypeError, match="executor"):
                run_cells([WorkCell(0, 0, FaultSpec("none", 0.0))], 0,
                          model=model, evaluator=evaluator, executor=removed)

    def test_budget_needs_a_declared_footprint(self):
        """A stacked pass is sized from what the evaluator states; one
        that states nothing runs only on the per-cell oracle."""
        model, evaluator = build_pair()
        cells = [WorkCell(0, run, FaultSpec("bitflip", 0.1)) for run in range(2)]
        undeclared = lambda m: evaluator(m)  # noqa: E731
        with pytest.raises(TypeError, match="forwards_per_cell"):
            run_cells(cells, 0, model=model, evaluator=undeclared)
        np.testing.assert_array_equal(
            run_cells(cells, 0, model=model, evaluator=undeclared,
                      engine=PER_CELL),
            run_cells(cells, 0, model=model, evaluator=evaluator),
        )

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_batch_bytes"):
            EngineConfig(max_batch_bytes=-1)

    @pytest.mark.parametrize("engine", [
        pytest.param(PER_CELL, id="serial"),
        pytest.param(EngineConfig(), id="batched"),
    ])
    def test_evaluator_exception_propagates(self, engine, monkeypatch):
        """An evaluator error on a faulty chip propagates out of the
        per-cell loop and out of a stacked pass, with every hook gone."""
        model, evaluator = build_pair()
        chips_at_raise = []

        @functools.wraps(evaluator)  # keeps its declared footprint
        def broken(m):
            # The fault-free cell passes.
            if any(getattr(site, "weight_fault", None) is not None
                   for site in m.modules()):
                chips_at_raise.append(active_chip_count())
                raise RuntimeError("evaluator exploded")
            return evaluator(m)

        stacked_calls = []
        stacked = executor_mod.evaluate_cells_stacked

        def recording(model, evaluator, cells, base_seed):
            stacked_calls.append(len(cells))
            return stacked(model, evaluator, cells, base_seed)

        monkeypatch.setattr(executor_mod, "evaluate_cells_stacked", recording)
        cells = [WorkCell(0, 0, FaultSpec("none", 0.0))] + [
            WorkCell(1, run, FaultSpec("bitflip", 0.1)) for run in range(3)
        ]
        with pytest.raises(RuntimeError, match="exploded"):
            run_cells(cells, 0, model=model, evaluator=broken, engine=engine)
        if engine == PER_CELL:
            assert stacked_calls == [] and chips_at_raise == [None]
        else:
            assert stacked_calls == [3] and chips_at_raise == [3]
        assert all(
            getattr(site, name, None) is None
            for site in model.modules()
            for name in ("weight_fault", "weight_fault_hh", "pre_fault")
        )


class TestProgressCallback:
    def test_on_cell_done_counts_every_cell(self):
        seen = []
        specs = bitflip_sweep([0.0, 0.1, 0.2])
        _campaign().sweep(specs, on_cell_done=lambda done, total: seen.append((done, total)))
        # 1 fault-free cell + 2 faulty scenarios x 4 runs
        assert len(seen) == 9
        assert seen[-1] == (9, 9)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_stacked_passes_count_every_cell(self):
        seen = []
        specs = bitflip_sweep([0.0, 0.1, 0.2])
        _campaign(engine=EngineConfig(None), n_runs=3).sweep(
            specs, on_cell_done=lambda done, total: seen.append((done, total))
        )
        assert seen[-1] == (7, 7)  # 1 fault-free + 2 x 3 chips
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)
