"""NVM non-ideality models and Monte Carlo fault campaigns.

Campaigns execute on the engine in :mod:`repro.faults.executor`, which
evaluates chip instances of a scenario — together with all Monte Carlo
samples of a Bayesian evaluator and same-kind fault-severity levels of a
sweep — in stacked vectorized forwards, as many per pass as
:class:`EngineConfig` ``max_batch_bytes`` allows:
:func:`evaluate_cells_scenario_batched` stacks per-chip frozen fault
patterns (:class:`ScenarioBatchedWeightFault`,
:class:`ChipBatchedActivationNoise`) along a leading instance axis
(scenario-major, then chip, then MC sample) while staying bit-identical
per (scenario, chip) to the per-cell reference :func:`evaluate_cell`.
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
    evaluate_cells_scenario_batched,
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
    ScenarioBatchedWeightFault,
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
    "ScenarioBatchedWeightFault",
    "ChipBatchedActivationNoise",
    "FaultInjector",
    "MonteCarloCampaign",
    "CampaignResult",
    "EngineConfig",
    "PER_CELL",
    "WorkCell",
    "cell_rngs",
    "evaluate_cell",
    "evaluate_cells_scenario_batched",
    "run_cells",
    "bitflip_sweep",
    "additive_sweep",
    "multiplicative_sweep",
    "uniform_sweep",
]
