"""Tests for the parallel cache warmer ``repro.eval.cache.train_models``
and for how the CLI picks its jobs: only models the result store cannot
stand in for."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.eval import build_task, cache, clear_memory_cache, cli, trained_model
from repro.eval.cache import campaign_key, result_store
from repro.eval.tasks import Task, mc_samples
from repro.faults import FaultSpec
from repro.models import conventional, proposed


@pytest.fixture
def no_processes(monkeypatch):
    """Fail the test if the warmer asks for a process pool."""

    def refuse(method):
        raise AssertionError(f"a {method!r} pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)


def _jobs():
    tasks = [build_task(name, preset="tiny") for name in ("audio", "co2")]
    return [(task, method) for task in tasks
            for method in (conventional(), proposed())]


def _checkpoints(root):
    out = {}
    for path in sorted(root.glob("*.npz")):
        with np.load(path) as archive:
            out[path.name] = {name: archive[name] for name in archive.files}
    return out


def test_pool_checkpoints_equal_sequential_ones(isolated_cache, monkeypatch):
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 2)
    sequential, pooled = isolated_cache / "sequential", isolated_cache / "pooled"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(sequential))
    clear_memory_cache()
    for task, method in _jobs():
        trained_model(task, method, "tiny")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(pooled))
    clear_memory_cache()
    cache.train_models(_jobs(), "tiny")
    assert multiprocessing.active_children() == []
    expected, got = _checkpoints(sequential), _checkpoints(pooled)
    assert len(got) == 4 and got.keys() == expected.keys()
    for name, arrays in expected.items():
        assert got[name].keys() == arrays.keys()
        for key, value in arrays.items():
            np.testing.assert_array_equal(got[name][key], value)

    # The parent now loads what the pool wrote instead of training.
    def no_training(self, method, seed=0, verbose=False):
        raise AssertionError("trained_model retrained a pooled checkpoint")

    monkeypatch.setattr(Task, "train_model", no_training)
    clear_memory_cache()
    for task, method in _jobs():
        trained_model(task, method, "tiny")


def test_nothing_missing_starts_no_process(isolated_cache, monkeypatch,
                                           no_processes):
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 2)
    jobs = _jobs()[:2]
    for task, method in jobs:
        trained_model(task, method, "tiny")
    cache.train_models(jobs, "tiny")  # every model is in memory
    clear_memory_cache()
    cache.train_models(jobs, "tiny")  # every checkpoint is on disk


def test_one_usable_cpu_starts_no_process(isolated_cache, monkeypatch,
                                          no_processes):
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 1)
    cache.train_models(_jobs(), "tiny")
    assert len(list(isolated_cache.glob("*.npz"))) == 4  # trained here


def test_one_missing_model_starts_no_process(isolated_cache, monkeypatch,
                                             no_processes):
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 2)
    jobs = _jobs()[:2]
    trained_model(*jobs[0], "tiny")
    cache.train_models(jobs, "tiny")
    assert len(list(isolated_cache.glob("*.npz"))) == 2  # the other, here


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cache._usable_cpus() == (os.cpu_count() or 1)


def test_failing_job_raises_in_caller(isolated_cache, monkeypatch):
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 2)

    def broken(self, method, seed=0, verbose=False):
        raise RuntimeError(f"cannot train {self.name}/{method.name}")

    monkeypatch.setattr(Task, "train_model", broken)
    with pytest.raises(RuntimeError, match=r"cannot train (audio|co2)/"):
        cache.train_models(_jobs(), "tiny")
    assert multiprocessing.active_children() == []
    assert list(isolated_cache.glob("*.npz")) == []


def test_table1_warms_only_pairs_the_store_cannot_serve(isolated_cache,
                                                       monkeypatch, capsys):
    pairs = [(name, method) for name in ("image", "audio", "vessels", "co2")
             for method in cli._methods_for(name)]
    stored = pairs[1::3]
    # co2's SpatialSpinDrop builds SpinDrop's network: its cells come with
    # SpinDrop's (here from the store), and it is never warmed itself.
    co2_spatial = pairs[14]
    assert co2_spatial[1].name == "spatial-spindrop"
    assert ("co2", co2_spatial[1].with_(name="spindrop")) in stored
    for name, method in stored:  # the store holds these Table I cells
        key = campaign_key(build_task(name, preset="tiny"), method,
                           FaultSpec("none", 0.0), 1, mc_samples("tiny"), 0)
        result_store().put(key, np.array([0.5]))
    warmed = []
    monkeypatch.setattr(cli, "train_models",
                        lambda jobs, *a, **kw: warmed.append(jobs))

    def fake_compute(works, **kwargs):
        for work in works:
            for m, indices in work.pending.items():
                for i in indices:
                    work.record(m, i, np.array([0.5]))

    monkeypatch.setattr(cli, "compute_pending", fake_compute)
    cli.main(["--preset", "tiny", "table1"])
    cli.main(["--preset", "tiny", "table1", "--no-cache"])
    capsys.readouterr()
    names = [[(task.name, method) for task, method in jobs] for jobs in warmed]
    assert names == [[p for p in pairs if p not in stored + [co2_spatial]],
                     [p for p in pairs if p != co2_spatial]]


def test_warm_store_trains_and_writes_no_checkpoint(isolated_cache,
                                                    monkeypatch, capsys):
    monkeypatch.setattr(cache, "_usable_cpus", lambda: 2)
    argv = ["--preset", "tiny", "campaign", "--task", "co2",
            "--fault", "bitflip", "--levels", "0", "0.1", "--runs", "2"]
    cli.main(argv)
    first = capsys.readouterr().out
    for path in isolated_cache.glob("*.npz"):
        path.unlink()
    clear_memory_cache()

    def no_training(self, method, seed=0, verbose=False):
        raise AssertionError(f"trained {self.name}/{method.name}")

    monkeypatch.setattr(Task, "train_model", no_training)
    cli.main(argv)
    assert capsys.readouterr().out == first
    assert list(isolated_cache.glob("*.npz")) == []
    assert multiprocessing.active_children() == []
