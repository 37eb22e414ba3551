"""Deterministic chaos-engine tests: every injected fault kind —
worker kill, worker hang, frame drop, frame delay, frame corruption —
individually and composed, with recovery pinned bit-identical to the
cold serial reference and every counter asserted.

``REPRO_CHAOS_SEED`` (default 1234) seeds the composed schedule so CI
can pin one replayable fault sequence; the per-kind tests use ``p=1``
schedules, which fire identically under any seed.
"""

import os
import socket
import struct

import numpy as np
import pytest

from repro.eval import build_task, clear_memory_cache, run_robustness_sweep
from repro.eval.cache import ResultStore
from repro.faults import bitflip_sweep
from repro.models import proposed
from repro.serve import CampaignService, ChaosSchedule, ServiceClient
from repro.serve.chaos import EVENT_KINDS, event_index

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1234"))

#: Counters that must be zero on a clean (chaos-free) run.
RECOVERY_KEYS = ("worker_deaths", "hangs", "respawns", "retries",
                 "frames_dropped", "frames_delayed", "frames_corrupted")


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    path = tmp_path_factory.mktemp("chaos_cache")
    mp.setenv("REPRO_CACHE_DIR", str(path))
    clear_memory_cache()
    yield path
    mp.undo()
    clear_memory_cache()


@pytest.fixture(scope="module")
def reference(shared_cache):
    """Cold serial reference sweep the chaos runs must match bit-for-bit."""
    task = build_task("audio", preset="tiny", seed=0)
    return run_robustness_sweep(
        task, [proposed()], _specs(), preset="tiny", seed=0, n_runs=3,
        use_cache=False,
    )


def _specs():
    return bitflip_sweep([0.0, 0.1, 0.2])


def _service(tmp_path, name, **kwargs):
    kwargs.setdefault("workers", 2)
    store = ResultStore(root=tmp_path / name / "store")
    return CampaignService(store=store, **kwargs), store


def _chaos_sweep(service, chaos, client_options=None, **sweep_options):
    with service, ServiceClient(
        service.address, **(client_options or {"backoff": 0.05})
    ) as client:
        sweep, stats = client.sweep(
            "audio", [proposed()], _specs(), preset="tiny", seed=0, n_runs=3,
            chaos=chaos, **sweep_options,
        )
        daemon_stats = client.stats()
    return sweep, stats, daemon_stats


def _assert_matches(reference, sweep):
    for name in reference.curves:
        np.testing.assert_array_equal(
            reference.curves[name].means, sweep.curves[name].means
        )
        np.testing.assert_array_equal(
            reference.curves[name].stds, sweep.curves[name].stds
        )


class TestScheduleDeterminism:
    def test_fires_is_a_pure_function(self):
        schedule = ChaosSchedule(seed=7, kinds=("kill",), p=0.5, max_trials=3)
        draws = [schedule.fires("kill", 0, "worker", 1, 4) for _ in range(10)]
        assert len(set(draws)) == 1  # same site, same answer, every time

    def test_distinct_sites_draw_independently(self):
        schedule = ChaosSchedule(seed=7, kinds=("kill",), p=0.5, max_trials=99)
        draws = {
            (t, w): schedule.fires("kill", t, "worker", w, 0)
            for t in range(8) for w in range(8)
        }
        assert len(set(draws.values())) == 2  # both outcomes occur

    def test_max_trials_bounds_every_kind(self):
        schedule = ChaosSchedule(
            seed=CHAOS_SEED, kinds=EVENT_KINDS, p=1.0, max_trials=2
        )
        assert schedule.worker_event(0, 1, 0) is not None
        assert schedule.worker_event(0, 2, 0) is None  # past the budget
        assert schedule.frame_event(1, "proposed", 0) is not None
        assert schedule.frame_event(2, "proposed", 0) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos event kinds"):
            ChaosSchedule(seed=0, kinds=("explode",))

    def test_event_index_is_stable_and_order_sensitive(self):
        assert event_index(1, "worker", 2) == event_index(1, "worker", 2)
        assert event_index(1, 2) != event_index(2, 1)

    def test_schedule_survives_the_wire(self):
        import pickle

        schedule = ChaosSchedule(
            seed=CHAOS_SEED, kinds=EVENT_KINDS, p=0.25, max_trials=2
        )
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert clone.worker_event(1, 0, 0) == schedule.worker_event(1, 0, 0)


class TestWorkerChaos:
    def test_kill_schedule_recovers_bit_identical(
        self, shared_cache, tmp_path, reference
    ):
        chaos = ChaosSchedule(seed=CHAOS_SEED, kinds=("kill",), p=1.0,
                              max_trials=1)
        service, _ = _service(tmp_path, "kill")
        sweep, stats, _ = _chaos_sweep(service, chaos)
        _assert_matches(reference, sweep)
        assert stats["worker_deaths"] >= 1
        assert stats["respawns"] >= 1  # the dead worker came back re-warmed
        assert stats["retries"] >= 1  # its units were re-issued
        assert stats["hangs"] == 0
        assert stats["rounds"] >= 2

    def test_kill_schedule_replays_identically(
        self, shared_cache, tmp_path, reference
    ):
        chaos = ChaosSchedule(seed=CHAOS_SEED, kinds=("kill",), p=1.0,
                              max_trials=1)
        runs = []
        for replay in range(2):
            service, _ = _service(tmp_path, f"replay{replay}")
            runs.append(_chaos_sweep(service, chaos))
        (sweep_a, stats_a, _), (sweep_b, stats_b, _) = runs
        _assert_matches(sweep_a, sweep_b)
        assert stats_a["assignments"] == stats_b["assignments"]
        assert stats_a["worker_deaths"] == stats_b["worker_deaths"]
        assert stats_a["respawns"] == stats_b["respawns"]

    def test_hang_schedule_watchdog_recovers_bit_identical(
        self, shared_cache, tmp_path, reference
    ):
        chaos = ChaosSchedule(seed=CHAOS_SEED, kinds=("hang",), p=1.0,
                              max_trials=1)
        service, _ = _service(
            tmp_path, "hang", workers=1, unit_deadline=3.0,
        )
        sweep, stats, _ = _chaos_sweep(service, chaos)
        _assert_matches(reference, sweep)
        assert stats["hangs"] == 1  # declared dead by the watchdog
        assert stats["respawns"] == 1
        assert stats["retries"] >= 1
        assert stats["worker_deaths"] == 0  # a hang is not a crash

    def test_respawn_budget_exhaustion_degrades_to_error(
        self, shared_cache, tmp_path
    ):
        # p=1 with an unbounded trial budget kills the lone worker in
        # every round; once its single respawn is spent the sweep must
        # fail loudly rather than loop.
        chaos = ChaosSchedule(seed=CHAOS_SEED, kinds=("kill",), p=1.0,
                              max_trials=1000)
        service, _ = _service(tmp_path, "budget", workers=1, max_respawns=1)
        with service, ServiceClient(service.address, backoff=0.05) as client:
            with pytest.raises(RuntimeError, match="service error"):
                client.sweep("audio", [proposed()], _specs(), preset="tiny",
                             seed=0, n_runs=3, chaos=chaos)


class TestFrameChaos:
    def test_frame_drop_retries_to_completion(
        self, shared_cache, tmp_path, reference
    ):
        chaos = ChaosSchedule(seed=CHAOS_SEED, kinds=("frame_drop",), p=1.0,
                              max_trials=1)
        service, _ = _service(tmp_path, "drop")
        sweep, stats, _ = _chaos_sweep(service, chaos)
        _assert_matches(reference, sweep)
        # Attempt 0 computed everything, dropped every frame; the retried
        # attempt streamed it all from the store without recomputing.
        assert stats["frames_dropped"] >= len(_specs())
        assert stats["attempt"] >= 1
        assert stats["retries"] >= 1
        assert stats["computed_cells"] == 0
        assert stats["redundant_cells"] == 0

    def test_frame_corrupt_retries_to_completion(
        self, shared_cache, tmp_path, reference
    ):
        chaos = ChaosSchedule(seed=CHAOS_SEED, kinds=("frame_corrupt",),
                              p=1.0, max_trials=1)
        service, _ = _service(tmp_path, "corrupt")
        sweep, stats, _ = _chaos_sweep(service, chaos)
        _assert_matches(reference, sweep)
        assert stats["frames_corrupted"] >= 1  # CRC caught it client-side
        assert stats["attempt"] >= 1
        assert stats["retries"] >= 1
        assert stats["redundant_cells"] == 0

    def test_frame_delay_trips_request_deadline_then_recovers(
        self, shared_cache, tmp_path, reference
    ):
        service, _ = _service(tmp_path, "delay")
        # Pre-warm the store so every retried attempt is store-served.
        clean_sweep, _, _ = _chaos_sweep(service, None)
        _assert_matches(reference, clean_sweep)
        chaos = ChaosSchedule(seed=CHAOS_SEED, kinds=("frame_delay",),
                              p=1.0, max_trials=1, delay=1.5)
        service2 = CampaignService(store=ResultStore(
            root=tmp_path / "delay" / "store"), workers=2)
        sweep, stats, _ = _chaos_sweep(
            service2, chaos,
            client_options={"request_timeout": 0.75, "retries": 4,
                            "backoff": 0.1},
        )
        _assert_matches(reference, sweep)
        assert stats["frames_delayed"] >= 1
        assert stats["attempt"] >= 1  # at least one deadline trip
        assert stats["retries"] >= 1
        assert stats["computed_cells"] == 0  # all store-served on retry


class TestComposedChaos:
    def test_composed_schedule_completes_bit_identical(
        self, shared_cache, tmp_path, reference
    ):
        chaos = ChaosSchedule(
            seed=CHAOS_SEED, kinds=EVENT_KINDS, p=0.3, max_trials=2,
            delay=0.3,
        )
        service, _ = _service(
            tmp_path, "composed", unit_deadline=3.0, max_respawns=3,
        )
        sweep, stats, _ = _chaos_sweep(
            service, chaos,
            client_options={"request_timeout": 8.0, "retries": 6,
                            "backoff": 0.05},
        )
        _assert_matches(reference, sweep)
        assert stats["attempt"] <= 6  # bounded retries
        assert stats["redundant_cells"] == 0


class TestCleanRunCounters:
    def test_clean_run_has_all_recovery_counters_zero(
        self, shared_cache, tmp_path, reference
    ):
        service, _ = _service(tmp_path, "clean")
        sweep, stats, daemon_stats = _chaos_sweep(service, None)
        _assert_matches(reference, sweep)
        for key in RECOVERY_KEYS:
            assert stats[key] == 0, key
        assert daemon_stats["conn_errors"] == 0
        assert daemon_stats["retried_requests"] == 0
        assert all(v == 0 for v in daemon_stats["recovery"].values())


class TestConnErrors:
    def test_mid_frame_disconnect_is_counted(self, shared_cache, tmp_path):
        service, _ = _service(tmp_path, "connerr")
        with service:
            # A peer that dies mid-frame: valid header, missing payload.
            raw = socket.create_connection(service.address, timeout=5)
            raw.sendall(struct.pack(">QI", 100, 0) + b"torn")
            raw.close()
            with ServiceClient(service.address) as client:
                deadline_stats = _poll_conn_errors(client, minimum=1)
            assert deadline_stats["conn_errors"] >= 1

    def test_corrupt_request_frame_is_counted(self, shared_cache, tmp_path):
        from repro.serve.protocol import send_message

        service, _ = _service(tmp_path, "connerr2")
        with service:
            raw = socket.create_connection(service.address, timeout=5)
            send_message(raw, {"op": "ping"}, corrupt=True)
            raw.close()
            with ServiceClient(service.address) as client:
                deadline_stats = _poll_conn_errors(client, minimum=1)
            assert deadline_stats["conn_errors"] >= 1

    def test_orderly_close_is_not_an_error(self, shared_cache, tmp_path):
        service, _ = _service(tmp_path, "connok")
        with service:
            with ServiceClient(service.address) as client:
                assert client.ping()["pong"]
            # Context exit closed the socket cleanly, between frames.
            with ServiceClient(service.address) as client:
                stats = _poll_conn_errors(client, minimum=0)
            assert stats["conn_errors"] == 0


def _poll_conn_errors(client, minimum, timeout=5.0):
    """Poll daemon stats until ``conn_errors`` reaches ``minimum``.

    The error is counted on the daemon's connection thread, which may
    not have observed the broken socket yet when the stats request
    lands.
    """
    import time

    deadline = time.monotonic() + timeout
    stats = client.stats()
    while stats["conn_errors"] < minimum and time.monotonic() < deadline:
        time.sleep(0.05)
        stats = client.stats()
    return stats
