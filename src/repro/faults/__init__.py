"""NVM non-ideality models and Monte Carlo fault campaigns.

Campaigns execute on the engine in :mod:`repro.faults.executor`
(:data:`EXECUTORS` = ``serial`` / ``batched``).  The ``batched`` backend
evaluates all chip instances of a scenario — together with all Monte
Carlo samples of a Bayesian evaluator and all same-kind fault-severity
levels of a sweep — in one vectorized forward:
:func:`evaluate_cells_batched` / :func:`evaluate_cells_scenario_batched`
stack per-chip frozen fault patterns (:class:`ChipBatchedWeightFault`,
:class:`ScenarioBatchedWeightFault`, :class:`ChipBatchedActivationNoise`)
along a leading instance axis (scenario-major, then chip, then MC sample)
while staying bit-identical per (scenario, chip) to the serial reference.
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
    EXECUTORS,
    WorkCell,
    cell_rngs,
    evaluate_cell,
    evaluate_cells_batched,
    evaluate_cells_scenario_batched,
    run_cells,
)
from .models import (
    ActivationNoise,
    AdditiveVariation,
    BitFlipFault,
    ChipBatchedActivationNoise,
    ChipBatchedWeightFault,
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
    "ChipBatchedWeightFault",
    "ScenarioBatchedWeightFault",
    "ChipBatchedActivationNoise",
    "FaultInjector",
    "MonteCarloCampaign",
    "CampaignResult",
    "EXECUTORS",
    "WorkCell",
    "cell_rngs",
    "evaluate_cell",
    "evaluate_cells_batched",
    "evaluate_cells_scenario_batched",
    "run_cells",
    "bitflip_sweep",
    "additive_sweep",
    "multiplicative_sweep",
    "uniform_sweep",
]
