"""Shared pairs, sweeps, engine budgets and per-cell values for the stacking tests."""

import numpy as np

from repro import nn
from repro.core.bayesian import mc_forward
from repro.eval import build_task, make_evaluator, trained_model
from repro.faults import (
    EngineConfig,
    FaultSpec,
    MonteCarloCampaign,
    evaluate_cell,
)
from repro.faults.executor import Footprint
from repro.quant import QuantConv2d, QuantLinear, SignActivation
from repro.tensor import Tensor, manual_seed
from repro.tensor.chipbatch import active_chip_count

#: Micro-model sweeps of two or three faulty levels, one per fault kind.
SWEEPS_BY_KIND = {
    "bitflip": [FaultSpec(kind="bitflip", level=l) for l in (0.05, 0.1, 0.2)],
    "additive": [FaultSpec(kind="additive", level=l) for l in (0.1, 0.3)],
    "multiplicative": [
        FaultSpec(kind="multiplicative", level=l) for l in (0.2, 0.4)
    ],
    "uniform": [FaultSpec(kind="uniform", level=l) for l in (0.1, 0.2, 0.4)],
    "stuck": [
        FaultSpec(kind="stuck", level=0.1, stuck_to="zero"),
        FaultSpec(kind="stuck", level=0.2, stuck_to="high"),
    ],
    "drift": [FaultSpec(kind="drift", level=l) for l in (24.0, 100.0)],
}

DATA_RNG_SEED = 7


def micro_data():
    """The micro-model's inputs ``(10, 1, 6, 6)`` and binary labels."""
    data_rng = np.random.default_rng(DATA_RNG_SEED)
    x = data_rng.normal(size=(10, 1, 6, 6))
    y = data_rng.integers(0, 2, 10)
    return x, y


def build_pair(seed=0, mc_samples=3):
    """Small mixed binary/multi-bit model with a chip-aware MC evaluator.

    Binary conv weights feed sign activations (so additive variation
    routes to activations), an 8-bit linear head holds multi-bit codes,
    and a Dropout layer makes every forward draw from the cell's stream.
    """
    manual_seed(seed)
    model = nn.Sequential(
        QuantConv2d(1, 3, 3, padding=1, weight_bits=1),
        SignActivation(),
        nn.GlobalAvgPool2d(),
        nn.Dropout(0.25),
        QuantLinear(3, 2, weight_bits=8),
    )
    x, y = micro_data()

    def evaluator(m):
        n_chips = active_chip_count()
        inp = x if n_chips is None else np.broadcast_to(x[None], (n_chips,) + x.shape)
        logits = mc_forward(m, Tensor(inp.copy()), num_samples=mc_samples)
        pred = logits.mean(axis=0).argmax(axis=-1)
        return (pred == y).mean(axis=-1)

    # One batch, one MC forward per sample: what the engine sizes from.
    evaluator.forwards_per_cell = mc_samples
    evaluator.input_bytes = x.nbytes
    return model, evaluator


def tiny_pair(task_name, method, samples=3, max_samples=None):
    """The cached ``tiny`` model of ``(task_name, method)`` and an
    evaluator over its test set."""
    task = build_task(task_name, preset="tiny")
    model = trained_model(task, method, "tiny", seed=0)
    evaluator = make_evaluator(
        task.name, task.test_set, method, mc_samples=samples,
        max_samples=max_samples,
    )
    return model, evaluator


def sweep_values(model, evaluator, specs, n_runs, engine, base_seed=0):
    """Per-scenario value arrays of one campaign sweep on ``engine``."""
    campaign = MonteCarloCampaign(
        model, evaluator, n_runs=n_runs, base_seed=base_seed, engine=engine
    )
    return [result.values for result in campaign.sweep(specs)]


def chip_engine(model, evaluator, chips):
    """An :class:`EngineConfig` whose budget fits exactly ``chips`` cells
    of ``(model, evaluator)`` per stacked pass."""
    footprint = Footprint.of(model, evaluator)
    return EngineConfig(chips * footprint.samples * footprint.instance_bytes)


def serial_values(model, evaluator, cells, base_seed, order=None):
    """Per-cell values, evaluated in ``order``, returned in cell order."""
    order = range(len(cells)) if order is None else order
    values = np.empty(len(cells))
    for i in order:
        values[i] = evaluate_cell(model, evaluator, cells[i], base_seed)
    return values
