"""Shared engine settings for the stacking tests."""

from repro.faults import (
    PER_CELL,
    EngineConfig,
    FaultSpec,
    WorkCell,
    run_cells,
)
from repro.faults.executor import learned_footprint

#: Campaign engines by the names the tests grew up with: the per-cell
#: oracle and the unbounded stacked engine.
ENGINES = {"serial": PER_CELL, "batched": EngineConfig(max_batch_bytes=None)}


def chip_engine(model, evaluator, chips):
    """An :class:`EngineConfig` whose budget fits exactly ``chips`` cells
    of ``(model, evaluator)`` per stacked pass.

    The pair's footprint is learned first (a two-chip run) when the engine
    has not sized it yet.
    """
    footprint = learned_footprint(model, evaluator)
    if footprint is None:
        spec = FaultSpec(kind="bitflip", level=0.1)
        run_cells(
            [WorkCell(0, run, spec) for run in range(2)], 0,
            model=model, evaluator=evaluator,
        )
        footprint = learned_footprint(model, evaluator)
    return EngineConfig(chips * footprint.samples * footprint.instance_bytes)
