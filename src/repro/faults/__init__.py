"""NVM non-ideality models and Monte Carlo fault campaigns.

Campaigns execute on the engine in :mod:`repro.faults.executor`, which
evaluates same-kind faulty cells — chips of one scenario or of several
severity levels, together with all Monte Carlo samples of a Bayesian
evaluator — in stacked vectorized forwards, as many per pass as
:class:`EngineConfig` ``max_batch_bytes`` allows:
:func:`evaluate_cells_stacked` stacks each cell's own fault hooks
(:class:`StackedWeightFault`, :class:`ChipBatchedActivationNoise`) along
a leading instance axis (cell-major, then MC sample) while staying
bit-identical per cell to the per-cell reference :func:`evaluate_cell`.
"""

from .campaign import (
    CampaignResult,
    FaultInjector,
    MonteCarloCampaign,
    additive_sweep,
    bitflip_sweep,
    multiplicative_sweep,
    uniform_sweep,
)
from .executor import (
    PER_CELL,
    EngineConfig,
    WorkCell,
    cell_rngs,
    evaluate_cell,
    evaluate_cells_stacked,
    run_cells,
)
from .models import (
    ActivationNoise,
    AdditiveVariation,
    BitFlipFault,
    ChipBatchedActivationNoise,
    FaultSpec,
    MultiplicativeVariation,
    RetentionDriftFault,
    StackedWeightFault,
    StuckAtFault,
    UniformNoiseFault,
    WeightFaultModel,
)

__all__ = [
    "FaultSpec",
    "WeightFaultModel",
    "BitFlipFault",
    "AdditiveVariation",
    "MultiplicativeVariation",
    "UniformNoiseFault",
    "StuckAtFault",
    "RetentionDriftFault",
    "ActivationNoise",
    "StackedWeightFault",
    "ChipBatchedActivationNoise",
    "FaultInjector",
    "MonteCarloCampaign",
    "CampaignResult",
    "EngineConfig",
    "PER_CELL",
    "WorkCell",
    "cell_rngs",
    "evaluate_cell",
    "evaluate_cells_stacked",
    "run_cells",
    "bitflip_sweep",
    "additive_sweep",
    "multiplicative_sweep",
    "uniform_sweep",
]
