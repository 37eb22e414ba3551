"""Deterministic sharding of one method's pending scenarios across
service workers.

The unit of work is one *kind group* from the campaign engine
(:func:`repro.faults.executor._kind_groups`): a maximal run of
same-fault-kind scenarios that the engine can stack into shared
vectorized passes.  Sharding at this granularity
keeps every unit on the engine's fastest path — splitting a kind group
across workers would forfeit cross-scenario stacking, and joining
unrelated groups would gain nothing (the engine re-derives per-cell
hermetic streams either way, so placement never affects values).

Assignment is longest-processing-time greedy with total ordering on
ties, so it is a pure function of ``(units, worker_ids)``: any two
schedulers holding the same pending units and the same surviving
workers — including a re-shard after a worker death — compute the same
placement.  That determinism is what makes worker failure testable:
replaying a request with the same death injected yields the same
rounds, the same assignments, and (because cells are hermetic) the
same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..faults.executor import WorkCell, _kind_groups


@dataclass(frozen=True)
class ShardUnit:
    """One schedulable kind group of one method's pending scenarios.

    ``index`` is the unit's position in the method's group list (the
    deterministic identity used for assignment ordering and re-shard
    bookkeeping), ``method`` the name of the method it runs for,
    ``kind`` the shared fault kind, ``scenarios`` its scenario indices,
    and ``n_cells`` the total cell count (the LPT weight).
    """

    index: int
    method: str
    kind: str
    scenarios: Tuple[int, ...]
    n_cells: int


def shard_units(cells: Sequence[WorkCell], method: str) -> List[ShardUnit]:
    """Partition ``method``'s cell grid into schedulable kind-group units."""
    units = []
    for index, group in enumerate(_kind_groups(cells)):
        start, stop = group[0][0], group[-1][1]
        units.append(
            ShardUnit(
                index=index,
                method=method,
                kind=cells[start].spec.kind,
                scenarios=tuple(cells[i].scenario_index for i, _ in group),
                n_cells=stop - start,
            )
        )
    return units


def revive_workers(
    dead: Sequence[int],
    respawns_used: Dict[int, int],
    max_respawns: int,
) -> List[int]:
    """Dead worker ids eligible for a respawn, in deterministic order.

    A worker may be respawned at most ``max_respawns`` times per sweep
    (``respawns_used`` counts what it has already consumed); past the
    budget the service degrades to the survivors.  The returned order is
    sorted by id so that — like :func:`assign_units` — the revive step
    is a pure function of its inputs and a replayed chaos run rebuilds
    the identical ``alive`` list round for round.
    """
    return sorted(
        wid for wid in dead if respawns_used.get(wid, 0) < max_respawns
    )


def assign_units(
    units: Sequence[ShardUnit], worker_ids: Sequence[int]
) -> Dict[int, List[ShardUnit]]:
    """Deterministically place units on workers (LPT greedy).

    Units are considered heaviest-first (ties broken by unit index) and
    each goes to the currently least-loaded worker (ties broken by the
    lowest worker id).  Every key of the returned dict is a worker id
    from ``worker_ids``, present even when its list is empty, so callers
    can spawn one worker per key unconditionally.
    """
    if not worker_ids:
        raise ValueError("cannot assign shard units to zero workers")
    if len(set(worker_ids)) != len(worker_ids):
        raise ValueError(f"duplicate worker ids: {list(worker_ids)}")
    assignment: Dict[int, List[ShardUnit]] = {wid: [] for wid in worker_ids}
    load = {wid: 0 for wid in worker_ids}
    for unit in sorted(units, key=lambda u: (-u.n_cells, u.index)):
        target = min(load, key=lambda wid: (load[wid], wid))
        assignment[target].append(unit)
        load[target] += unit.n_cells
    return assignment
