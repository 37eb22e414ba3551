"""Methods that build one network train and sweep it once.

On the co2 LSTM a dropout site sees the ``(n, hidden)`` vector, which
has no spatial axis, so SpatialSpinDrop's spatial dropout is SpinDrop's
unit dropout (``repro.models.methods.SPATIAL_DROPOUT``) and
``network_method`` resolves one to the other.  These tests prove that
instead of assuming it: the network spatial dropout would build there
trains to SpinDrop's weights and sweeps to SpinDrop's values.  On the
other three topologies every method stays its own network, and a CLI
sweep of co2 stores all four methods' entries from three networks' jobs.
"""

import multiprocessing

import numpy as np
import pytest

from repro.eval import build_task, cache, cli, network_method
from repro.eval.cache import _method_key, _model_key, campaign_key, result_store
from repro.eval.campaigns import campaign_eval_cap, split_sweep
from repro.eval.evaluators import make_evaluator
from repro.faults import PER_CELL, EngineConfig, FaultSpec, MonteCarloCampaign
from repro.models import (
    conventional,
    proposed,
    spatial_spindrop,
    spindrop,
)
from repro.models import methods as methods_mod
from repro.nn import Dropout, SpatialDropout1d
from repro.nn.dropout import StochasticModule
from repro.profiling import profiled

SPECS = [FaultSpec("none", 0.0), FaultSpec("bitflip", 0.1),
         FaultSpec("bitflip", 0.2)]


def _dropouts(model):
    return [type(m) for m in model.modules() if isinstance(m, StochasticModule)]


@pytest.fixture(scope="module")
def co2_pair():
    """co2 ``tiny`` SpinDrop, and SpatialSpinDrop as spatial dropout
    builds it when nothing is shared, each trained by ``Task.train_model``
    (no model cache)."""
    task = build_task("co2", preset="tiny")
    ours = task.train_model(spindrop())
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(methods_mod.SPATIAL_DROPOUT, "features", SpatialDropout1d)
        assert network_method(task, spatial_spindrop()).name == "spatial-spindrop"
        spatial = task.train_model(spatial_spindrop())
    assert set(_dropouts(ours)) == {Dropout}
    assert set(_dropouts(spatial)) == {SpatialDropout1d}
    return task, ours, spatial


def test_co2_spatial_spindrop_trains_to_spindrop_weights(co2_pair):
    _, ours, spatial = co2_pair
    ours, spatial = ours.state_dict(), spatial.state_dict()
    assert ours.keys() == spatial.keys()
    for name, value in ours.items():
        np.testing.assert_array_equal(spatial[name], value, err_msg=name)


@pytest.mark.parametrize("engine", [EngineConfig(), PER_CELL],
                         ids=["default-budget", "per-cell"])
def test_co2_spatial_spindrop_sweeps_to_spindrop_values(co2_pair, engine):
    task, ours, spatial = co2_pair
    values = []
    for model, method in ((ours, spindrop()), (spatial, spatial_spindrop())):
        evaluator = make_evaluator(task.name, task.test_set, method,
                                   mc_samples=4,
                                   max_samples=campaign_eval_cap("tiny"))
        campaign = MonteCarloCampaign(model, evaluator, n_runs=3, base_seed=0,
                                      engine=engine)
        values.append([r.values for r in campaign.sweep(SPECS)])
    for mine, theirs in zip(*values):
        np.testing.assert_array_equal(theirs, mine)


@pytest.mark.parametrize("task_name", ["image", "audio", "vessels"])
def test_spatial_dropout_is_its_own_network_elsewhere(task_name):
    task = build_task(task_name, preset="tiny")
    assert network_method(task, spatial_spindrop()) == spatial_spindrop()
    assert _model_key(task, spatial_spindrop(), "tiny", 0) != _model_key(
        task, spindrop(), "tiny", 0)
    unit = _dropouts(task.build_model(spindrop()))
    spatial = _dropouts(task.build_model(spatial_spindrop()))
    assert unit and set(unit) == {Dropout}
    assert len(spatial) == len(unit) and Dropout not in spatial


def test_co2_spatial_spindrop_is_spindrops_network():
    task = build_task("co2", preset="tiny")
    for method in (conventional(), spindrop(), proposed()):
        assert network_method(task, method) == method
    assert network_method(task, spatial_spindrop()) == spindrop()
    assert (_model_key(task, spatial_spindrop(), "tiny", 0)
            == _model_key(task, spindrop(), "tiny", 0))


def test_epochs_multiplier_is_part_of_the_key():
    assert _method_key(spindrop()) == "spindrop-p0.3-batch"
    assert _method_key(spindrop(epochs_multiplier=1.0)) != _method_key(
        spindrop())
    task = build_task("co2", preset="tiny")
    spec = FaultSpec("bitflip", 0.1)
    assert campaign_key(task, spindrop(), spec, 3, 4, 0) != campaign_key(
        task, spindrop(epochs_multiplier=1.0), spec, 3, 4, 0)
    # A shared network never joins methods that train for different epochs.
    key = _model_key(task, spatial_spindrop(epochs_multiplier=1.0), "tiny", 0)
    assert key != _model_key(task, spindrop(), "tiny", 0)
    assert key == _model_key(task, spindrop(epochs_multiplier=1.0), "tiny", 0)


def test_a_member_takes_the_entry_another_member_stored(isolated_cache):
    task = build_task("co2", preset="tiny")
    methods = cli._methods_for("co2")
    spin, spatial = methods[1], methods[2]
    stored = np.array([0.25])
    result_store().put(campaign_key(task, spin, SPECS[0], 1, 4, 0, None),
                       stored)
    with profiled() as stages:
        work = split_sweep(task, methods, SPECS[:1], preset="tiny",
                           n_runs=1, samples=4, max_eval_samples=None)
    assert work.networks == {0: [0], 1: [1, 2], 3: [3]}
    assert work.pending == {0: [0], 3: [0]}
    np.testing.assert_array_equal(work.values[2][0], stored)
    np.testing.assert_array_equal(
        result_store().get(campaign_key(task, spatial, SPECS[0], 1, 4, 0,
                                        None)), stored)
    assert stages["shared.spatial-spindrop = spindrop"] == 1


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-cpu", "pooled"])
def test_co2_campaign_computes_three_networks_and_stores_four_methods(
    cpus, isolated_cache, monkeypatch, capsys
):
    from repro.eval import campaigns

    log = isolated_cache / "jobs.log"
    compute = campaigns.SplitSweep.compute

    def logged(self, m, indices, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{self.methods[m].name}\n")
        return compute(self, m, indices, **kwargs)

    monkeypatch.setattr(campaigns.SplitSweep, "compute", logged)
    monkeypatch.setattr(cache, "_usable_cpus", lambda: cpus)
    cli.main(["--preset", "tiny", "campaign", "--task", "co2",
              "--fault", "bitflip", "--levels", "0", "0.1", "--runs", "2",
              "--no-cache"])
    capsys.readouterr()
    assert multiprocessing.active_children() == []
    assert set(log.read_text().split()) == {"conventional", "spindrop",
                                            "proposed"}
    task = build_task("co2", preset="tiny")
    store = result_store()
    store.clear_memory()
    values = {
        method.name: [
            store.get(campaign_key(task, method, spec, 2, 4, 0,
                                   campaign_eval_cap("tiny")))
            for spec in SPECS[:2]
        ]
        for method in cli._methods_for("co2")
    }
    assert all(v is not None for vs in values.values() for v in vs)
    assert len(store) == 8
    for mine, theirs in zip(values["spindrop"], values["spatial-spindrop"]):
        np.testing.assert_array_equal(theirs, mine)
    assert len(list(isolated_cache.glob("*.npz"))) == 3
