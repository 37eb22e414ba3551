"""End-to-end campaign-service tests: bit-identity, zero-redundant
accounting, request checking, fault recovery, and the daemon subprocess.

The module-scoped cache directory keeps trained tiny-preset models warm
across tests (exactly what a real daemon does); each test that needs an
isolated result store roots one in its own tmp directory.
"""

import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.eval import build_task, clear_memory_cache, run_robustness_sweep
from repro.eval.cache import ResultStore
from repro.faults import additive_sweep, bitflip_sweep, multiplicative_sweep
from repro.models import all_methods, proposed
from repro.serve import CampaignService, ServiceClient, ServiceUnavailable


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    path = tmp_path_factory.mktemp("serve_cache")
    mp.setenv("REPRO_CACHE_DIR", str(path))
    clear_memory_cache()
    yield path
    mp.undo()
    clear_memory_cache()


def _service_pair(tmp_path, **kwargs):
    store = ResultStore(root=tmp_path / "store")
    service = CampaignService(store=store, **kwargs)
    return service, store


def _assert_sweeps_equal(a, b):
    assert sorted(a.curves) == sorted(b.curves)
    for name in a.curves:
        np.testing.assert_array_equal(a.curves[name].means, b.curves[name].means)
        np.testing.assert_array_equal(a.curves[name].stds, b.curves[name].stds)


#: ``_sweep_request`` override that removes a field.
_MISSING = object()


def _sweep_request(**overrides):
    """A valid sweep request as ``ServiceClient.sweep`` sends it, with
    ``overrides`` applied (``_MISSING`` removes a field)."""
    request = {
        "op": "sweep", "task": "audio", "preset": "tiny", "seed": 0,
        "n_runs": 2, "samples": None, "max_eval_samples": -1,
        "methods": [proposed()], "specs": bitflip_sweep([0.0, 0.1]),
        "use_store": True,
    }
    request.update(overrides)
    return {k: v for k, v in request.items() if v is not _MISSING}


def _close(*socks):
    for sock in socks:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()


def _pipe(src, dst):
    """Copy bytes from ``src`` to ``dst`` until either side closes."""
    try:
        while True:
            chunk = src.recv(1 << 16)
            if not chunk:
                break
            dst.sendall(chunk)
    except OSError:
        pass
    finally:
        _close(src, dst)


class _OneShotProxy:
    """Loopback proxy to a daemon that damages the first reply frame it
    forwards — drops it, or breaks its CRC — and passes the rest through."""

    def __init__(self, upstream, damage):
        self.upstream, self.damage = upstream, damage
        self.damaged = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                client, _ = self.listener.accept()
            except OSError:
                return  # closed
            server = socket.create_connection(self.upstream)
            threading.Thread(
                target=_pipe, args=(client, server), daemon=True
            ).start()
            threading.Thread(
                target=self._replies, args=(server, client), daemon=True
            ).start()

    def _replies(self, server, client):
        reader = server.makefile("rb")
        try:
            while True:
                header = reader.read(12)
                if len(header) < 12:
                    return
                length, crc = struct.unpack(">QI", header)
                payload = reader.read(length)
                if not self.damaged:
                    self.damaged += 1
                    if self.damage == "drop":
                        continue
                    crc ^= 1
                client.sendall(struct.pack(">QI", length, crc) + payload)
        except OSError:
            pass
        finally:
            reader.close()
            _close(server, client)

    def close(self):
        _close(self.listener)


class TestServiceSweep:
    def test_bit_identical_and_zero_redundant_on_repeat(
        self, shared_cache, tmp_path
    ):
        methods = [proposed()]
        specs = bitflip_sweep([0.0, 0.1, 0.2])
        task = build_task("audio", preset="tiny", seed=0)
        reference = run_robustness_sweep(
            task, methods, specs, preset="tiny", seed=0, n_runs=3,
            use_cache=False,
        )
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            first, stats1 = client.sweep(
                "audio", methods, specs, preset="tiny", seed=0, n_runs=3
            )
            second, stats2 = client.sweep(
                "audio", methods, specs, preset="tiny", seed=0, n_runs=3
            )
        _assert_sweeps_equal(reference, first)
        _assert_sweeps_equal(reference, second)
        assert stats1["redundant_cells"] == 0
        # The repeat is served entirely from the store: nothing computed,
        # nothing redundant, hit counters prove it.
        assert stats2["computed_cells"] == 0
        assert stats2["redundant_cells"] == 0
        assert stats2["served_cells"] == stats1["served_cells"] + \
            stats1["computed_cells"]
        assert stats2["store"]["puts"] == 0 and stats2["store"]["misses"] == 0

    def test_per_worker_throughput_rows(self, shared_cache, tmp_path):
        methods = [proposed()]
        specs = bitflip_sweep([0.0, 0.1, 0.2])
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            _, stats = client.sweep(
                "audio", methods, specs, preset="tiny", seed=0, n_runs=3
            )
        assert stats["workers"]  # at least one worker computed something
        for row in stats["workers"]:
            assert row["cells"] > 0
            assert row["cells_per_sec"] > 0
        assert sum(r["cells"] for r in stats["workers"]) == \
            stats["computed_cells"]

    def test_partial_frames_stream_per_scenario(self, shared_cache, tmp_path):
        methods = [proposed()]
        specs = bitflip_sweep([0.0, 0.1])
        frames = []
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            client.sweep("audio", methods, specs, preset="tiny", seed=0,
                         n_runs=3, on_partial=frames.append)
            assert sorted(f["scenario"] for f in frames) == [0, 1]
            assert all(f["source"] == "computed" for f in frames)
            frames.clear()
            client.sweep("audio", methods, specs, preset="tiny", seed=0,
                         n_runs=3, on_partial=frames.append)
        assert all(f["source"] == "store" for f in frames)

    def test_overlapping_grid_recomputes_only_new_scenarios(
        self, shared_cache, tmp_path
    ):
        methods = [proposed()]
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            _, stats1 = client.sweep(
                "audio", methods, bitflip_sweep([0.0, 0.1]),
                preset="tiny", seed=0, n_runs=3,
            )
            # The wider grid overlaps the first two levels exactly.
            _, stats2 = client.sweep(
                "audio", methods, bitflip_sweep([0.0, 0.1, 0.2]),
                preset="tiny", seed=0, n_runs=3,
            )
        assert stats2["served_cells"] == stats1["served_cells"] + \
            stats1["computed_cells"]
        assert stats2["redundant_cells"] == 0
        assert stats2["computed_cells"] == 3  # only the new level's cells

    def test_pending_scenario_misses_the_store_once(
        self, shared_cache, tmp_path
    ):
        methods = [proposed()]
        service, store = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            client.sweep(
                "audio", methods, bitflip_sweep([0.0, 0.1]),
                preset="tiny", seed=0, n_runs=3,
            )
            before = store.snapshot()
            # Half of this grid is stored: two hits, two pending scenarios.
            _, stats = client.sweep(
                "audio", methods, bitflip_sweep([0.0, 0.1, 0.2, 0.4]),
                preset="tiny", seed=0, n_runs=3,
            )
            after = store.snapshot()
        assert after["hits"] - before["hits"] == 2
        assert after["misses"] - before["misses"] == 2
        assert after["puts"] - before["puts"] == 2
        assert stats["store"]["misses"] == 2

    def test_store_and_transport_seconds_accounted(
        self, shared_cache, tmp_path
    ):
        from repro.profiling import profiled

        methods = [proposed()]
        specs = bitflip_sweep([0.0, 0.1])
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            with profiled() as stages:
                _, stats = client.sweep(
                    "audio", methods, specs, preset="tiny", seed=0, n_runs=3
                )
        assert stages["transport"] > 0  # client-side wire time recorded
        assert stats["store_seconds"] >= 0


class TestSharedNetwork:
    """SpatialSpinDrop builds SpinDrop's co2 LSTM: the daemon computes
    that network once and serves its values under both methods."""

    def test_co2_computes_each_network_once(
        self, shared_cache, tmp_path, monkeypatch
    ):
        from repro.eval.cache import campaign_key
        from repro.eval.campaigns import campaign_settings
        from repro.faults import MonteCarloCampaign

        calls = []
        sweep = MonteCarloCampaign.sweep

        def counted(self, *args, **kwargs):
            calls.append(self.model.method)
            return sweep(self, *args, **kwargs)

        monkeypatch.setattr(MonteCarloCampaign, "sweep", counted)
        methods = all_methods(conventional_norm="batch")
        specs = bitflip_sweep([0.0, 0.1])
        frames = {}

        def collect(frame):
            frames[frame["method"], frame["scenario"]] = frame["values"]

        service, store = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            first, stats1 = client.sweep(
                "co2", methods, specs, preset="tiny", seed=0, n_runs=2,
                on_partial=collect,
            )
            second, stats2 = client.sweep(
                "co2", methods, specs, preset="tiny", seed=0, n_runs=2
            )
        # One campaign per network; the repeat runs none.
        assert len(calls) == 3
        # Per method: (1 fault-free + 2 faulty cells) x 4 methods, of
        # which SpatialSpinDrop's 3 are SpinDrop's.
        assert stats1["computed_cells"] == 12
        assert stats1["shared_cells"] == 3
        assert stats1["served_cells"] == 0
        for scenario in range(len(specs)):
            np.testing.assert_array_equal(
                frames["spatial-spindrop", scenario],
                frames["spindrop", scenario],
            )
        task = build_task("co2", preset="tiny", seed=0)
        reference = run_robustness_sweep(
            task, methods, specs, preset="tiny", seed=0, n_runs=2,
            use_cache=False,
        )
        _assert_sweeps_equal(reference, first)
        _assert_sweeps_equal(reference, second)
        n_runs, samples, cap = campaign_settings("tiny", 2)
        for name in ("spindrop", "spatial-spindrop"):
            method = next(m for m in methods if m.name == name)
            for scenario, spec in enumerate(specs):
                stored = store.get(campaign_key(
                    task, method, spec, n_runs, samples, 0, cap
                ))
                np.testing.assert_array_equal(
                    stored, frames[name, scenario]
                )
        assert stats2["computed_cells"] == 0
        assert stats2["shared_cells"] == 0
        assert stats2["served_cells"] == 12


class TestWorkerDeath:
    """Work an earlier request landed is served, never recomputed."""

    def test_retry_after_partial_store_is_not_redundant(
        self, shared_cache, tmp_path
    ):
        """A sweep serves the scenario an earlier request landed."""
        methods = [proposed()]
        specs = bitflip_sweep([0.0, 0.1, 0.2])
        store = ResultStore(root=tmp_path / "store")
        service = CampaignService(store=store)
        with service, ServiceClient(service.address) as client:
            _, stats1 = client.sweep(
                "audio", methods, [specs[1]], preset="tiny", seed=0, n_runs=3
            )
            _, stats2 = client.sweep(
                "audio", methods, specs, preset="tiny", seed=0, n_runs=3
            )
        assert stats2["redundant_cells"] == 0
        assert stats2["served_cells"] >= 3  # the pre-landed scenario


class TestServiceMisc:
    def test_ping_and_stats(self, shared_cache, tmp_path):
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            assert client.ping()["pong"]
            stats = client.stats()
            assert stats["requests"] == 0
            client.sweep("audio", [proposed()], bitflip_sweep([0.0, 0.1]),
                         preset="tiny", seed=0, n_runs=2)
            assert client.stats()["requests"] == 1

    def test_unknown_op_is_an_error(self, shared_cache, tmp_path):
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            with pytest.raises(RuntimeError, match="unknown op"):
                client._roundtrip({"op": "frobnicate"})

    def test_unknown_task_is_an_error_not_a_crash(
        self, shared_cache, tmp_path
    ):
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            with pytest.raises(RuntimeError, match="service error"):
                client.sweep("nonexistent", [proposed()],
                             bitflip_sweep([0.0, 0.1]), preset="tiny")
            # The daemon survives the bad request.
            assert client.ping()["pong"]

    def test_chaos_dict_is_an_error(self, shared_cache, tmp_path):
        # The daemon injects no faults: a request asking for some is
        # refused, not silently served without them.
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            with pytest.raises(RuntimeError, match="service error.*chaos"):
                client._roundtrip(_sweep_request(
                    chaos={"worker": 0, "after_units": 0}
                ))
            assert client.ping()["pong"]

    @pytest.mark.parametrize("field", ["n_runs", "samples"])
    def test_empty_campaign_is_an_error(self, shared_cache, tmp_path, field):
        service, store = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            with pytest.raises(RuntimeError, match=f"service error.*{field}"):
                client.sweep(
                    "audio", [proposed()], bitflip_sweep([0.0, 0.1]),
                    preset="tiny", seed=0, **{field: 0},
                )
        assert store.snapshot()["puts"] == 0

    @pytest.mark.parametrize("field, value", [
        pytest.param("preset", _MISSING, id="preset-missing"),
        pytest.param("preset", "huge", id="preset-unknown"),
        pytest.param("task", "nonexistent", id="task-unknown"),
        pytest.param("seed", "0", id="seed-str"),
        pytest.param("specs", [{"kind": "bitflip", "level": 0.1}],
                     id="specs-dict"),
        pytest.param("methods", ["proposed"], id="methods-str"),
        pytest.param("methods", [proposed(), proposed()],
                     id="methods-repeated"),
        pytest.param("use_store", "no", id="use_store-str"),
        pytest.param("n_runs", True, id="n_runs-bool"),
        pytest.param("max_eval_samples", 0, id="max_eval_samples-0"),
    ])
    def test_bad_field_is_named_before_any_work(
        self, shared_cache, tmp_path, field, value
    ):
        service, store = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            with pytest.raises(RuntimeError, match=f"service error.*{field}"):
                client._roundtrip(_sweep_request(**{field: value}))
            assert client.ping()["pong"]  # the daemon survives it
            assert client.stats()["requests"] == 0
        # Nothing was read from or written to the store.
        assert not any(store.snapshot().values())

    def test_compute_failure_reports_its_own_message(
        self, shared_cache, tmp_path
    ):
        methods = [proposed()]
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            with pytest.raises(
                RuntimeError, match=r"bit-flip rate must be in \[0, 1\]"
            ):
                client.sweep("audio", methods, bitflip_sweep([0.0, 3.0]),
                             preset="tiny", seed=0, n_runs=2)
            # The failed sweep left no fault hooks on the shared model.
            sweep, _ = client.sweep("audio", methods, bitflip_sweep([0.0, 0.1]),
                                    preset="tiny", seed=0, n_runs=2)
        task = build_task("audio", preset="tiny", seed=0)
        reference = run_robustness_sweep(
            task, methods, bitflip_sweep([0.0, 0.1]), preset="tiny", seed=0,
            n_runs=2, use_cache=False,
        )
        _assert_sweeps_equal(reference, sweep)

    @pytest.mark.parametrize(
        "host", ["0.0.0.0", "10.1.2.3", "example.org", "::1"]
    )
    def test_non_loopback_host_refused(self, tmp_path, host):
        # The daemon unpickles every frame: it must never be reachable
        # from another machine.
        with pytest.raises(ValueError, match="loopback"):
            _service_pair(tmp_path, host=host)

    def test_non_loopback_host_refused_by_cli(self, capsys):
        from repro.serve.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["--host", "0.0.0.0"])
        assert exc.value.code == 2
        assert "loopback" in capsys.readouterr().err

    @pytest.mark.parametrize("host", ["127.0.0.1", "localhost"])
    def test_loopback_host_binds(self, tmp_path, host):
        service, _ = _service_pair(tmp_path, host=host)
        with service, ServiceClient(service.address) as client:
            assert client.ping()["pong"]

    def test_shutdown_stops_service(self, shared_cache, tmp_path):
        service, _ = _service_pair(tmp_path)
        service.start()
        with ServiceClient(service.address) as client:
            client.shutdown()
        assert service._stopped.is_set()


class TestFaultRecovery:
    def test_shutdown_with_sweep_in_flight_fails_cleanly(
        self, shared_cache, tmp_path
    ):
        """stop() mid-sweep drops the connection instead of serving
        from a half-dead daemon."""
        # Two methods: the stop lands while the first method's frames
        # stream, so the second method's are guaranteed still pending
        # (not yet computed, so they cannot sit in the socket buffer).
        methods = all_methods(conventional_norm="batch")[:2]
        specs = bitflip_sweep([0.0, 0.1, 0.2])
        service, store = _service_pair(tmp_path)
        service.start()
        killed = []

        def kill_on_first_frame(frame):
            if not killed:
                killed.append(frame)
                service.stop()

        with ServiceClient(service.address, retries=0) as client:
            with pytest.raises(ServiceUnavailable):
                client.sweep(
                    "audio", methods, specs, preset="tiny", seed=0, n_runs=3,
                    on_partial=kill_on_first_frame,
                )
        assert killed  # the sweep was genuinely in flight
        assert service._stopped.is_set()
        # A fresh daemon over the same store serves the re-issued sweep
        # without recomputing anything the stopped one already stored.
        service2 = CampaignService(store=store)
        with service2, ServiceClient(service2.address) as client:
            sweep, stats = client.sweep(
                "audio", methods, specs, preset="tiny", seed=0, n_runs=3
            )
        assert stats["redundant_cells"] == 0
        task = build_task("audio", preset="tiny", seed=0)
        reference = run_robustness_sweep(
            task, methods, specs, preset="tiny", seed=0, n_runs=3,
            use_cache=False,
        )
        _assert_sweeps_equal(reference, sweep)

    def test_client_reconnects_after_daemon_restart(
        self, shared_cache, tmp_path
    ):
        """One client object spans a daemon restart on the same port: the
        retry loop re-dials, and the re-issued sweep is entirely
        store-served — zero computed, zero redundant cells."""
        methods = [proposed()]
        specs = bitflip_sweep([0.0, 0.1, 0.2])
        store = ResultStore(root=tmp_path / "store")
        service1 = CampaignService(store=store).start()
        port = service1.port
        client = ServiceClient(service1.address, retries=3, backoff=0.05)
        try:
            first, stats1 = client.sweep(
                "audio", methods, specs, preset="tiny", seed=0, n_runs=3
            )
            assert stats1["computed_cells"] > 0
            service1.stop()
            service2 = CampaignService(
                port=port, store=ResultStore(root=tmp_path / "store")
            ).start()
            try:
                # The client still holds the dead socket; the retry loop
                # must notice and reconnect transparently.
                assert client.ping()["pong"]
                second, stats2 = client.sweep(
                    "audio", methods, specs, preset="tiny", seed=0, n_runs=3
                )
            finally:
                service2.stop()
        finally:
            client.close()
            service1.stop()
        _assert_sweeps_equal(first, second)
        assert stats2["computed_cells"] == 0
        assert stats2["redundant_cells"] == 0
        assert stats2["served_cells"] == \
            stats1["served_cells"] + stats1["computed_cells"]

    def test_failed_request_resets_socket_for_next_call(
        self, shared_cache, tmp_path
    ):
        service, _ = _service_pair(tmp_path)
        service.start()
        port = service.port
        with ServiceClient(service.address, retries=0) as client:
            assert client.ping()["pong"]
            service.stop()
            with pytest.raises(ServiceUnavailable):
                client.ping()
            assert client._sock is None  # close()-after-error reset it
            service2, _ = _service_pair(tmp_path / "again")
            service2.port = port
            with service2:
                assert client.ping()["pong"]  # fresh dial, same client


    @pytest.mark.parametrize("damage", ["drop", "corrupt"])
    def test_damaged_reply_frame_is_retried(
        self, shared_cache, tmp_path, damage
    ):
        """A reply frame lost or corrupted in flight costs one retry of
        the same request, served from the store, with identical bits."""
        methods = [proposed()]
        specs = bitflip_sweep([0.0, 0.1, 0.2])
        task = build_task("audio", preset="tiny", seed=0)
        reference = run_robustness_sweep(
            task, methods, specs, preset="tiny", seed=0, n_runs=3,
            use_cache=False,
        )
        service, _ = _service_pair(tmp_path)
        with service:
            proxy = _OneShotProxy(service.address, damage)
            try:
                with ServiceClient(
                    proxy.address, retries=2, backoff=0.01
                ) as client:
                    sweep, stats = client.sweep(
                        "audio", methods, specs, preset="tiny", seed=0,
                        n_runs=3,
                    )
            finally:
                proxy.close()
        assert proxy.damaged == 1
        _assert_sweeps_equal(reference, sweep)
        assert stats["retries"] == 1  # one earlier attempt of this request
        assert stats["computed_cells"] == 0  # the retry read the store
        assert stats["redundant_cells"] == 0


class TestConnErrors:
    def test_mid_frame_disconnect_is_counted(self, shared_cache, tmp_path):
        service, _ = _service_pair(tmp_path)
        with service:
            # A peer that dies mid-frame: valid header, missing payload.
            raw = socket.create_connection(service.address, timeout=5)
            raw.sendall(struct.pack(">QI", 100, 0) + b"torn")
            raw.close()
            with ServiceClient(service.address) as client:
                stats = _poll_conn_errors(client, minimum=1)
            assert stats["conn_errors"] >= 1

    def test_corrupt_request_frame_is_counted(self, shared_cache, tmp_path):
        service, _ = _service_pair(tmp_path)
        with service:
            # A whole frame whose CRC does not match its payload.
            payload = pickle.dumps({"op": "ping"})
            raw = socket.create_connection(service.address, timeout=5)
            raw.sendall(
                struct.pack(">QI", len(payload), zlib.crc32(payload) ^ 1)
                + payload
            )
            raw.close()
            with ServiceClient(service.address) as client:
                stats = _poll_conn_errors(client, minimum=1)
            assert stats["conn_errors"] >= 1

    def test_orderly_close_is_not_an_error(self, shared_cache, tmp_path):
        service, _ = _service_pair(tmp_path)
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
    deadline = time.monotonic() + timeout
    stats = client.stats()
    while stats["conn_errors"] < minimum and time.monotonic() < deadline:
        time.sleep(0.05)
        stats = client.stats()
    return stats


_FAULT_SWEEPS = {
    "bitflip": bitflip_sweep,
    "additive": additive_sweep,
    "multiplicative": multiplicative_sweep,
}

_CONVENTIONAL_NORM = {"image": "batch", "audio": "batch", "co2": "batch",
                      "vessels": "group"}


class TestFullMatrix:
    """Acceptance sweep: every topology × all methods × fault kinds."""

    @pytest.mark.parametrize("task_name", ["image", "audio", "co2", "vessels"])
    @pytest.mark.parametrize("fault", ["bitflip", "additive"])
    def test_topology_matrix_bit_identical_zero_redundant(
        self, shared_cache, tmp_path, task_name, fault
    ):
        methods = all_methods(
            conventional_norm=_CONVENTIONAL_NORM[task_name]
        )
        specs = _FAULT_SWEEPS[fault]([0.0, 0.1])
        task = build_task(task_name, preset="tiny", seed=0)
        reference = run_robustness_sweep(
            task, methods, specs, preset="tiny", seed=0, n_runs=2,
            use_cache=False,
        )
        service, _ = _service_pair(tmp_path)
        with service, ServiceClient(service.address) as client:
            first, stats1 = client.sweep(
                task_name, methods, specs, preset="tiny", seed=0, n_runs=2
            )
            second, stats2 = client.sweep(
                task_name, methods, specs, preset="tiny", seed=0, n_runs=2
            )
        _assert_sweeps_equal(reference, first)
        _assert_sweeps_equal(reference, second)
        assert stats1["redundant_cells"] == 0
        assert stats2["computed_cells"] == 0
        assert stats2["redundant_cells"] == 0


class TestDaemonSubprocess:
    def test_python_m_repro_serve_round_trip(self, shared_cache, tmp_path):
        """The real daemon process serves a sweep and shuts down cleanly."""
        env = {
            "REPRO_CACHE_DIR": str(shared_cache),
            "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
            "PATH": "/usr/bin:/bin",
        }
        # --workers still parses (and is ignored) for older launchers.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=str(tmp_path),
        )
        try:
            banner = proc.stdout.readline()
            address = banner.strip().rsplit(" ", 1)[-1]
            with ServiceClient(address) as client:
                assert client.ping()["pong"]
                sweep, stats = client.sweep(
                    "audio", [proposed()], bitflip_sweep([0.0, 0.1]),
                    preset="tiny", seed=0, n_runs=2,
                )
                assert stats["redundant_cells"] == 0
                assert set(sweep.curves) == {"proposed"}
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
