"""Deterministic-sharding tests: unit derivation and LPT assignment."""

import pytest

from repro.faults import FaultSpec
from repro.faults.executor import WorkCell
from repro.serve import ShardUnit, assign_units, shard_units


def _grid(n_runs=3, levels=(0.1, 0.2, 0.3), kind="bitflip"):
    """Fault-free scenario 0 plus a stackable same-kind severity group."""
    cells = [WorkCell(0, 0, FaultSpec(kind="none", level=0.0))]
    for scenario, level in enumerate(levels, start=1):
        spec = FaultSpec(kind=kind, level=level)
        cells.extend(WorkCell(scenario, run, spec) for run in range(n_runs))
    return cells


class TestShardUnits:
    def test_kind_groups_become_units(self):
        units = shard_units(_grid(), "proposed")
        assert [u.kind for u in units] == ["none", "bitflip"]
        assert [u.n_cells for u in units] == [1, 9]
        assert [u.scenarios for u in units] == [(0,), (1, 2, 3)]
        assert {u.method for u in units} == {"proposed"}

    def test_unit_indices_are_positional(self):
        units = shard_units(_grid(), "proposed")
        assert [u.index for u in units] == [0, 1]

    def test_mixed_kinds_split_units(self):
        cells = _grid(levels=(0.1, 0.2), kind="bitflip")
        spec = FaultSpec(kind="additive", level=0.3)
        cells.extend(WorkCell(3, run, spec) for run in range(3))
        units = shard_units(cells, "proposed")
        assert [u.kind for u in units] == ["none", "bitflip", "additive"]

    def test_empty_grid(self):
        assert shard_units([], "proposed") == []


class TestAssignment:
    def _units(self, sizes):
        return [
            ShardUnit(index=i, method="proposed", kind="bitflip",
                      scenarios=(i,), n_cells=n)
            for i, n in enumerate(sizes)
        ]

    def test_every_worker_id_is_a_key(self):
        assignment = assign_units(self._units([4]), [0, 1, 2])
        assert sorted(assignment) == [0, 1, 2]
        assert sum(len(v) for v in assignment.values()) == 1

    def test_deterministic(self):
        units = self._units([5, 3, 3, 2, 2])
        first = assign_units(units, [0, 1])
        second = assign_units(list(units), [0, 1])
        assert first == second

    def test_heaviest_first_balance(self):
        units = self._units([5, 3, 3, 2, 2])
        assignment = assign_units(units, [0, 1])
        loads = {
            wid: sum(u.n_cells for u in assigned)
            for wid, assigned in assignment.items()
        }
        assert max(loads.values()) - min(loads.values()) <= 5

    def test_survivor_reshard_is_deterministic(self):
        units = self._units([5, 3, 3, 2, 2])
        full = assign_units(units, [0, 1, 2])
        # Worker 1 dies mid-round: its units return to the pool and the
        # survivors re-run the same pure assignment function.
        pending = sorted(full[1], key=lambda u: u.index)
        reshard_a = assign_units(pending, [0, 2])
        reshard_b = assign_units(list(pending), [0, 2])
        assert reshard_a == reshard_b
        assert sorted(reshard_a) == [0, 2]

    def test_ties_break_by_lowest_worker_id(self):
        assignment = assign_units(self._units([2]), [7, 3, 5])
        owner = next(wid for wid, us in assignment.items() if us)
        assert owner == 3

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            assign_units(self._units([1]), [])

    def test_duplicate_worker_ids_rejected(self):
        with pytest.raises(ValueError):
            assign_units(self._units([1]), [0, 0])


class TestReviveWorkers:
    def test_budget_gates_revival(self):
        from repro.serve import revive_workers

        assert revive_workers([0, 2], {}, max_respawns=1) == [0, 2]
        assert revive_workers([0, 2], {0: 1}, max_respawns=1) == [2]
        assert revive_workers([0, 2], {0: 1, 2: 1}, max_respawns=1) == []
        assert revive_workers([0, 2], {0: 1, 2: 1}, max_respawns=2) == [0, 2]

    def test_zero_budget_never_revives(self):
        from repro.serve import revive_workers

        assert revive_workers([0, 1, 2], {}, max_respawns=0) == []

    def test_order_is_deterministic(self):
        from repro.serve import revive_workers

        assert revive_workers([3, 1, 2], {}, max_respawns=1) == [1, 2, 3]
        assert revive_workers((2, 0), {}, 1) == revive_workers([0, 2], {}, 1)
