"""Experiment harness: tasks, evaluators, caches, campaigns, reporting.

Campaign drivers (:func:`run_robustness_sweep`, :func:`baseline_metrics`)
ride the campaign engine in :mod:`repro.faults.executor`, which stacks
each scenario's chip instances into byte-budgeted vectorized forwards
(every evaluator built by :func:`make_evaluator` is chip-aware and
returns a per-chip metric vector under an active chip batch).  Results
are bit-identical for every engine budget and are cached per
scenario by :func:`campaign_key` in the content-addressed
:class:`ResultStore` shared across processes, sessions, and the
campaign service (:mod:`repro.serve`).
"""

from .activations import (
    DistributionSummary,
    activation_shift_experiment,
    capture_weighted_sums,
)
from .cache import (
    ResultStore,
    cache_dir,
    campaign_key,
    clear_memory_cache,
    content_hash,
    result_store,
    trained_model,
)
from .campaigns import (
    MethodCurve,
    RobustnessSweep,
    baseline_metrics,
    campaign_eval_cap,
    run_robustness_sweep,
)
from .evaluators import (
    classification_accuracy,
    make_evaluator,
    regression_rmse,
    segmentation_miou,
)
from .reporting import (
    METHOD_LABELS,
    ProgressMeter,
    format_profile,
    format_service_stats,
    format_sweep,
    format_table_row,
    summarize_improvements,
    table_header,
)
from .tasks import (
    PRESETS,
    Task,
    active_preset,
    audio_task,
    build_task,
    co2_task,
    image_task,
    mc_runs,
    mc_samples,
    network_method,
    vessel_task,
)

__all__ = [
    "Task",
    "build_task",
    "image_task",
    "audio_task",
    "co2_task",
    "vessel_task",
    "active_preset",
    "mc_runs",
    "mc_samples",
    "network_method",
    "PRESETS",
    "trained_model",
    "cache_dir",
    "clear_memory_cache",
    "campaign_key",
    "content_hash",
    "ResultStore",
    "result_store",
    "ProgressMeter",
    "classification_accuracy",
    "segmentation_miou",
    "regression_rmse",
    "make_evaluator",
    "run_robustness_sweep",
    "baseline_metrics",
    "campaign_eval_cap",
    "RobustnessSweep",
    "MethodCurve",
    "format_table_row",
    "table_header",
    "format_profile",
    "format_service_stats",
    "format_sweep",
    "summarize_improvements",
    "METHOD_LABELS",
    "capture_weighted_sums",
    "activation_shift_experiment",
    "DistributionSummary",
]
