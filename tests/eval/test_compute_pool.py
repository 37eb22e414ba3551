"""Tests for the CLI's compute pool (``repro.eval.campaigns.compute_pending``
on ``repro.eval.cache.fork_map``): a command gives the same bytes on two
usable CPUs as on one, and only the parent process writes the store."""

import multiprocessing
import os
import shutil
import threading

import numpy as np
import pytest

from repro.eval import build_task, cache, campaigns, cli
from repro.eval.cache import ResultStore, fork_map, result_store
from repro.quant import quantized_layers

CO2 = ["--preset", "tiny", "campaign", "--task", "co2", "--fault", "bitflip",
       "--levels", "0", "0.1", "0.2", "--runs", "2"]
#: Cells of ``CO2``: per method one fault-free chip and 2 per faulty level.
CO2_CELLS = 4 * (1 + 2 + 2)


def _store_entries(root):
    """``{entry file: (key, contract, values bytes)}`` of a result store."""
    entries = {}
    for path in sorted((root / "store").glob("??/*.npz")):
        with np.load(path) as entry:
            entries[path.name] = (str(entry["key"]), str(entry["contract"]),
                                  entry["values"].tobytes())
    return entries


@pytest.fixture(scope="module")
def co2_models(tmp_path_factory):
    """The checkpoints ``CO2`` loads, trained once for the module."""
    root = tmp_path_factory.mktemp("co2-models")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(root))
        cache.clear_memory_cache()
        task = build_task("co2", preset="tiny")
        for method in cli._methods_for("co2"):
            cache.trained_model(task, method, "tiny")
    cache.clear_memory_cache()
    # SpatialSpinDrop's LSTM is SpinDrop's: one checkpoint serves both.
    assert len(list(root.glob("*.npz"))) == 3
    return root


def _run(argv, root, cpus, monkeypatch, capsys, models=None):
    """Run the CLI on ``cpus`` usable CPUs in a fresh cache at ``root``
    holding the checkpoints of ``models``; returns its stdout, store
    entries and ``ResultStore.get`` count."""
    root.mkdir(parents=True, exist_ok=True)
    for path in models.glob("*.npz") if models is not None else ():
        shutil.copyfile(path, root / path.name)
    monkeypatch.setattr(cache, "_usable_cpus", lambda: cpus)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    cache.clear_memory_cache()
    before = result_store().snapshot()
    cli.main(argv)
    after = result_store().snapshot()
    assert multiprocessing.active_children() == []
    gets = sum(after[k] - before[k] for k in ("hits", "misses"))
    return capsys.readouterr().out, _store_entries(root), gets


@pytest.mark.parametrize("argv, gets", [
    (CO2, 12),
    (CO2 + ["--no-cache"], 0),
    (["--preset", "tiny", "table1"], 16),
], ids=["campaign", "campaign-no-cache", "table1"])
def test_pool_gives_the_bytes_of_one_cpu(argv, gets, isolated_cache,
                                         co2_models, monkeypatch, capsys):
    # Pooled table1 starts cold; the one-CPU run loads the pooled run's
    # checkpoints (test_train_models.py checks that the pool trains the
    # same ones).
    pooled = _run(argv, isolated_cache / "pooled", 2, monkeypatch, capsys,
                  None if "table1" in argv else co2_models)
    one = _run(argv, isolated_cache / "one", 1, monkeypatch, capsys,
               models=isolated_cache / "pooled")
    assert pooled[0] == one[0]
    assert pooled[1] == one[1] and len(one[1]) == (16 if "table1" in argv
                                                   else 12)
    # One store read per (method, scenario) of the command, not two.
    assert one[2] == pooled[2] == gets


def test_rerun_serves_every_cell_from_the_store(isolated_cache, co2_models,
                                                monkeypatch, capsys):
    first = _run(CO2, isolated_cache, 2, monkeypatch, capsys, co2_models)
    again = _run(CO2, isolated_cache, 2, monkeypatch, capsys)
    assert again[:2] == first[:2]


def test_only_the_parent_writes_the_store(isolated_cache, co2_models,
                                         monkeypatch, capsys):
    log = isolated_cache / "puts.log"
    put = ResultStore.put

    def logged_put(self, key, values):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return put(self, key, values)

    monkeypatch.setattr(ResultStore, "put", logged_put)
    _run(CO2 + ["--no-cache"], isolated_cache, 2, monkeypatch, capsys,
         co2_models)
    assert log.read_text().split() == [str(os.getpid())] * 12


def test_failing_job_raises_in_caller(isolated_cache, co2_models, monkeypatch,
                                      capsys):
    compute = campaigns.SplitSweep.compute

    def broken(self, m, indices, **kwargs):
        if self.methods[m].name == "proposed" and indices[0] == 2:
            raise RuntimeError("cannot compute proposed at level 0.2")
        return compute(self, m, indices, **kwargs)

    monkeypatch.setattr(campaigns.SplitSweep, "compute", broken)
    with pytest.raises(RuntimeError, match="cannot compute proposed"):
        _run(CO2, isolated_cache, 2, monkeypatch, capsys, co2_models)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_progress_meter_ends_at_the_cell_count(cpus, isolated_cache,
                                               co2_models, monkeypatch, capsys):
    meters = []

    class Recorded(cli.ProgressMeter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            meters.append(self)

    monkeypatch.setattr(cli, "ProgressMeter", Recorded)
    _run(CO2, isolated_cache, cpus, monkeypatch, capsys, co2_models)
    assert [(m.done, m.total) for m in meters] == [(CO2_CELLS, CO2_CELLS)]


def _deployment_state():
    """``(models, layers holding deployment state)`` of this process's
    memory-cached models."""
    held = [
        type(layer).__name__ for model in cache._MEMORY.values()
        for layer in quantized_layers(model)
        if layer._record_cache or layer._deploy_cache
        or layer.last_quantized is not None
        or getattr(layer, "last_quantized_hh", None) is not None
    ]
    return len(cache._MEMORY), held


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_job_leaves_its_model_no_deployment_state(cpus, isolated_cache,
                                                    co2_models, monkeypatch,
                                                    capsys):
    """Each compute job, forked or here, ends with no programmed codes,
    deploy entry or last record on any layer of the models it loaded."""
    fork_map = campaigns.fork_map
    states = []

    def checked(fn, jobs, on_result):
        def job(j):
            return fn(j), _deployment_state()

        def finished(index, result):
            states.append(result[1])
            on_result(index, result[0])

        fork_map(job, jobs, finished)

    monkeypatch.setattr(campaigns, "fork_map", checked)
    _run(CO2 + ["--no-cache"], isolated_cache, cpus, monkeypatch, capsys,
         co2_models)
    assert len(states) == (3 if cpus == 1 else 9)
    for models, held in states:
        assert models >= 1 and held == []


def _square(job):
    if job == 3:
        raise ValueError("job 3 fails")
    return job * job


def test_fork_map_runs_every_job(monkeypatch):
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 2)
    threads = threading.active_count()
    results = {}
    fork_map(_square, [0, 1, 2], results.__setitem__)
    assert results == {0: 0, 1: 1, 2: 4}
    assert multiprocessing.active_children() == []
    # No pool thread outlives the call, so the next fork_map forks a
    # process that runs one thread.
    assert threading.active_count() == threads


def test_fork_map_raises_a_worker_exception(monkeypatch):
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match="job 3 fails"):
        fork_map(_square, list(range(6)), lambda index, result: None)
    assert multiprocessing.active_children() == []


def test_fork_map_runs_in_process_without_a_pool(monkeypatch):
    def refuse(method):
        raise AssertionError(f"a {method!r} pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 2)
    seen = []
    fork_map(lambda job: os.getpid(), [0], lambda i, pid: seen.append(pid))
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 1)
    fork_map(lambda job: os.getpid(), [0, 1], lambda i, pid: seen.append(pid))
    assert seen == [os.getpid()] * 3


def test_workers_run_one_blas_thread(monkeypatch):
    import ctypes
    import pathlib

    libs = (pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs")
    getters = [
        getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_",
                None)
        for lib in sorted(libs.glob("*openblas*"))
    ]
    getter = next((g for g in getters if g is not None), None)
    if getter is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 2)
    threads = {}
    fork_map(lambda job: getter(), [0, 1], threads.__setitem__)
    assert threads == {0: 1, 1: 1}
