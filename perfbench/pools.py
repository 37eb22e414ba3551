"""Seeded workload inputs: sweep levels and the service request sequence.

Every input the program receives is a pure function of the benchmark's
``--seed``; the program never sees the seed itself.
"""

from __future__ import annotations

import random
from typing import List, Tuple

#: Tasks and preset of the service workload's requests.
SERVICE_TASKS = ("co2", "audio")
SERVICE_PRESET = "tiny"
#: Each block of three requests is these tasks in a seeded order.  An
#: audio request takes about 60% of a co2 one, so a 1:1 mix would put the
#: median request between the two modes, where it jumps from run to run.
SERVICE_MIX = ("co2", "co2", "audio")

#: Levels per scenario position in each task's pool.  Position 0 is the
#: fault-free level; positions 1-3 draw from disjoint grids in (0, 0.2],
#: so a level always sits at the same scenario index.  That matters
#: because a scenario's fault seeds derive from its index while the
#: result store keys on the level alone.
POOL_SIZE = 53
POSITIONS = 4


def pool(position: int) -> List[float]:
    """The levels a request may place at scenario ``position`` (1-3)."""
    return [round(0.00125 * (3 * j + position), 5) for j in range(POOL_SIZE)]


def columns() -> List[List[float]]:
    """Level lists covering every pool level once, at its own position."""
    return [
        [0.0] + [pool(position)[j] for position in range(1, POSITIONS)]
        for j in range(POOL_SIZE)
    ]


def methods():
    """The four methods of every workload's sweeps (conventional = batch norm)."""
    from repro.models import all_methods

    return all_methods(conventional_norm="batch")


def sweep_levels(seed: int) -> List[float]:
    """Fault-free plus three distinct seeded bitflip rates in (0, 0.2]."""
    rng = random.Random(seed)
    draws = set()
    while len(draws) < 3:
        draws.add(round(rng.uniform(0.001, 0.2), 3))
    return [0.0] + sorted(draws)


def service_requests(seed: int, count: int) -> List[Tuple[str, List[float]]]:
    """``count`` seeded ``(task, levels)`` requests in :data:`SERVICE_MIX`.

    Position 0 is always the fault-free level, stored by the warm-up.  Of
    positions 1-3, a seeded one repeats a level this sequence already
    sent there (served from the store); the other two take the next
    unused level of their pools (computed and written).  So half of every
    request's scenarios hit the store, and every request does the same
    amount of work.  The first request of a task has nothing to repeat;
    a used-up pool repeats too.
    """
    rng = random.Random(seed)
    unused = {}
    used = {}
    for task in SERVICE_TASKS:
        for position in range(1, POSITIONS):
            levels = pool(position)
            rng.shuffle(levels)
            unused[task, position] = levels
            used[task, position] = []
    requests = []
    tasks = []
    while len(tasks) < count:
        block = list(SERVICE_MIX)
        rng.shuffle(block)
        tasks += block
    for task in tasks[:count]:
        stored = rng.randrange(1, POSITIONS)
        levels = [0.0]
        for position in range(1, POSITIONS):
            fresh, seen = unused[task, position], used[task, position]
            if seen and (position == stored or not fresh):
                level = rng.choice(seen)
            else:
                level = fresh.pop()
                seen.append(level)
            levels.append(level)
        requests.append((task, levels))
    return requests
