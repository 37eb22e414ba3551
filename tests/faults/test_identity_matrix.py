"""Topology × method × fault-kind identity matrix of the campaign engine.

The per-cell oracle (``PER_CELL``: every cell through
:func:`~repro.faults.executor.evaluate_cell`, in submission order) is
what the paper's Monte Carlo numbers mean.  Every other way the engine
can run a sweep must give the same bits, because a cell's value depends
only on ``(base_seed, scenario, run)``.  One case per trained ``tiny``
model (image ResNet-18, audio M5, co2 LSTM, vessels U-Net) × Bayesian
method × fault kind sweeps a fault-free level and two faulty levels of
that kind (two chips each) at a nonzero base seed, and checks against the
oracle, in two tests:

``test_every_engine_path_equals_the_per_cell_oracle`` runs the engine at

* the default byte budget (``EngineConfig()``, which sizes the pair on
  its first cell);
* the unbounded budget (``EngineConfig(None)``): one stacked pass that
  holds both chips of both faulty levels, each cell at its own severity
  and on its own stream;
* a budget of one cell per stacked pass, and (bitflip cases) one a
  byte short of a cell, which runs every faulty cell on its own.

``test_per_cell_values_ignore_order_and_deploy_cache`` runs the cells
one at a time in reverse order with the deployment cache off
(:func:`~repro.quant.layers.deploy_cache_disabled`), so neither
evaluation order nor cached weight codes can change a value.

Each case's oracle is swept once and shared by its two tests.
"""

import numpy as np
import pytest

from repro.faults import (
    PER_CELL,
    EngineConfig,
    FaultSpec,
    additive_sweep,
    bitflip_sweep,
    multiplicative_sweep,
    uniform_sweep,
)
from repro.faults.campaign import scenario_cells
from repro.models import all_methods
from repro.profiling import profiled
from repro.quant.layers import deploy_cache_disabled
from tests.faults.stacking import chip_engine, serial_values, sweep_values, tiny_pair

TOPOLOGIES = ("image", "audio", "co2", "vessels")

#: One sweep per fault kind: a fault-free level, then two faulty levels.
SWEEPS = {
    "bitflip": bitflip_sweep([0.0, 0.1, 0.3]),
    "additive": additive_sweep([0.0, 0.2, 0.5]),
    "multiplicative": multiplicative_sweep([0.0, 0.4, 0.8]),
    "uniform": uniform_sweep([0.0, 0.2, 0.5]),
    "stuck": [
        FaultSpec(kind="none", level=0.0),
        FaultSpec(kind="stuck", level=0.1, stuck_to="zero"),
        FaultSpec(kind="stuck", level=0.3, stuck_to="high"),
    ],
    "drift": [
        FaultSpec(kind="none", level=0.0),
        FaultSpec(kind="drift", level=24.0),
        FaultSpec(kind="drift", level=100.0),
    ],
}

#: Chips per faulty level, and the campaign's base seed.
N_RUNS = 2
BASE_SEED = 1
#: Monte Carlo draws per prediction (the fewest that stack a sample axis).
SAMPLES = 2
#: Test samples scored per forward (``None``: the whole ``tiny`` test
#: set).  The ResNet-18 scores 8 of its 40 images, the cost of a forward.
EVAL_SAMPLES = {"image": 8, "audio": None, "co2": None, "vessels": None}


_ORACLES = {}


def _case(topology, method, kind):
    """The model, evaluator and ``PER_CELL`` values of one matrix case."""
    model, evaluator = tiny_pair(
        topology, method, samples=SAMPLES, max_samples=EVAL_SAMPLES[topology]
    )
    key = (topology, method.name, kind)
    if key not in _ORACLES:
        specs = SWEEPS[kind]
        oracle = sweep_values(model, evaluator, specs, N_RUNS, PER_CELL, BASE_SEED)
        # Faults that left every value at the fault-free one would make
        # the identities below hold trivially.
        assert np.any(np.concatenate(oracle[1:]) != oracle[0][0])
        _ORACLES[key] = oracle
    return model, evaluator, _ORACLES[key]


matrix = pytest.mark.parametrize(
    "topology, method, kind",
    [
        (topology, method, kind)
        for topology in TOPOLOGIES
        for method in all_methods()
        for kind in sorted(SWEEPS)
    ],
    ids=lambda value: getattr(value, "name", value),
)


@matrix
def test_every_engine_path_equals_the_per_cell_oracle(topology, method, kind):
    specs = SWEEPS[kind]
    model, evaluator, oracle = _case(topology, method, kind)

    def sweep(engine):
        return sweep_values(model, evaluator, specs, N_RUNS, engine, BASE_SEED)

    np.testing.assert_array_equal(sweep(EngineConfig()), oracle, "default")
    faulty_cells = N_RUNS * (len(specs) - 1)
    one_cell = chip_engine(model, evaluator, 1)
    for label, engine, passes in (
        ("unbounded", EngineConfig(None), 1),
        ("one cell per pass", one_cell, faulty_cells),
    ):
        with profiled() as stages:
            np.testing.assert_array_equal(sweep(engine), oracle, label)
        assert stages["engine.passes"] == passes, label
    if kind == "bitflip":  # the over-budget path does not depend on the kind
        with profiled() as stages:
            under = sweep(EngineConfig(one_cell.max_batch_bytes - 1))
        np.testing.assert_array_equal(under, oracle, "under one cell")
        assert "engine.passes" not in stages
        assert stages["engine.per-cell.over-budget"] == faulty_cells


@matrix
def test_per_cell_values_ignore_order_and_deploy_cache(topology, method, kind):
    model, evaluator, oracle = _case(topology, method, kind)
    cells = [
        cell for idx, spec in enumerate(SWEEPS[kind])
        for cell in scenario_cells(spec, idx, N_RUNS)
    ]
    with deploy_cache_disabled():
        reverse = serial_values(
            model, evaluator, cells, BASE_SEED,
            order=reversed(range(len(cells))),
        )
    expected = [oracle[cell.scenario_index][cell.run_index] for cell in cells]
    np.testing.assert_array_equal(reverse, expected, "reversed, deploy cache off")
