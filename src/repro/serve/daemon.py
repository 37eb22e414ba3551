"""The campaign service daemon.

One :class:`CampaignService` process keeps trained models and their
frozen deployment quantization caches warm across requests: the models
are the process's memory-cached ones (:mod:`repro.eval.cache`), so only
the first request per (task, method) pays to load and quantize them.

The daemon binds IPv4 loopback addresses only: it unpickles every frame
it receives, so any other ``host`` is refused at construction.

A sweep request is checked field by field before any work
(:func:`sweep_request`); a bad field is answered with an error frame
that names it.  The request then runs on its connection thread through
the CLI's own path (:mod:`repro.eval.campaigns`):
:func:`~repro.eval.campaigns.split_sweep` reads each (method, scenario)
from the daemon's store once, and the stored ones stream back at once
(``source="store"``), so a repeated or overlapping sweep computes
**zero** redundant cells.  Then each network with pending scenarios
(SpinDrop and SpatialSpinDrop build one co2 LSTM) is computed once at
the scenarios' own indices, so values are bit-identical to a local run,
recorded under each of its methods (nowhere if the request set
``use_store=False``), and streamed back (``source="computed"``) before
the next network is computed.  The compute never forks
(:func:`~repro.eval.campaigns.compute_pending` does): forking is only
safe in a single-threaded process.

Sweeps are serialized by a lock, so the shared models' fault hooks are
never touched by two sweeps at once.  A compute failure (a bad fault
level, say) reaches the client as an error frame carrying the failure's
own message.

The reply's ``stats`` carry per-request store-counter deltas
(hit/miss/put/merge), ``served_cells`` and ``computed_cells`` (together
the request's cells, counted per method), ``shared_cells`` (the computed
cells a method took from another method of its network),
``redundant_cells`` (cells computed whose store entry already existed —
zero on a healthy service), ``retries`` (prior attempts of the same
idempotent ``request_id``), and one ``cells``/``seconds``/``cells_per_sec``
row for the compute.
"""

from __future__ import annotations

import ipaddress
import numbers
import socket
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

from ..faults import FaultSpec
from ..models import MethodConfig
from ..eval.cache import ResultStore, result_store
from ..eval.campaigns import campaign_settings, split_sweep
from ..eval.tasks import PRESETS, TASK_BUILDERS, build_task
from .protocol import ConnectionClosed, recv_message, send_message

#: Remembered request ids (FIFO-bounded).
MAX_REMEMBERED_REQUESTS = 256


@dataclass
class _Sweep:
    """One checked sweep request."""

    task_name: str
    methods: Sequence[MethodConfig]
    specs: Sequence[FaultSpec]
    preset: str
    seed: int
    n_runs: int
    samples: int
    max_eval_samples: Optional[int]
    use_store: bool
    request_id: Optional[str]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _all_of(kind):
    return lambda v: (
        isinstance(v, (list, tuple)) and bool(v)
        and all(isinstance(x, kind) for x in v)
    )


#: Sweep request field → (required, check, what the check expects).
#: ``n_runs``, ``samples`` and ``max_eval_samples`` have no check here:
#: :func:`~repro.eval.campaigns.campaign_settings` checks them.
_SWEEP_FIELDS = {
    "op": (True, None, ""),
    "task": (True, lambda v: isinstance(v, str) and v in TASK_BUILDERS,
             f"one of {list(TASK_BUILDERS)}"),
    "preset": (True, lambda v: v in PRESETS, f"one of {list(PRESETS)}"),
    "seed": (True, lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "methods": (True, _all_of(MethodConfig), "a non-empty list of MethodConfig"),
    "specs": (True, _all_of(FaultSpec), "a non-empty list of FaultSpec"),
    "n_runs": (False, None, ""),
    "samples": (False, None, ""),
    "max_eval_samples": (False, None, ""),
    "use_store": (False, lambda v: isinstance(v, bool), "a bool"),
    "request_id": (False, lambda v: v is None or isinstance(v, str),
                   "None or a string"),
    "attempt": (False, lambda v: _is_int(v) and v >= 0,
                "a non-negative integer"),
}


def sweep_request(request: dict) -> _Sweep:
    """Check every field of a sweep request; returns the checked sweep.

    Raises ``ValueError`` naming the first missing, unknown or bad
    field.  Builds nothing: the task is built under the sweep lock.
    """
    unknown = sorted(set(request) - set(_SWEEP_FIELDS), key=str)
    if unknown:
        raise ValueError(f"unknown sweep request field(s) {unknown}")
    for name, (required, check, expected) in _SWEEP_FIELDS.items():
        if name not in request:
            if required:
                raise ValueError(f"sweep request field {name!r} is missing")
            continue
        if check is not None and not check(request[name]):
            raise ValueError(
                f"sweep request field {name!r} must be {expected}, "
                f"got {request[name]!r}"
            )
    names = [m.name for m in request["methods"]]
    if len(set(names)) != len(names):
        raise ValueError(
            f"sweep request field 'methods' repeats a method name: {names}"
        )
    preset = request["preset"]
    n_runs, samples, max_eval_samples = campaign_settings(
        preset, request.get("n_runs"), request.get("samples"),
        request.get("max_eval_samples", -1),
    )
    return _Sweep(
        task_name=request["task"],
        methods=list(request["methods"]), specs=list(request["specs"]),
        preset=preset, seed=request["seed"], n_runs=n_runs, samples=samples,
        max_eval_samples=max_eval_samples,
        use_store=request.get("use_store", True),
        request_id=request.get("request_id"),
    )


def _check_loopback(host: str) -> None:
    """Refuse any bind address but IPv4 loopback and ``localhost``.

    Frames are pickled, and unpickling runs code, so the daemon must
    never listen where another host can reach it.  The listener is an
    ``AF_INET`` socket, so IPv6 loopback (``::1``) is refused too: it
    could not be bound.
    """
    if host != "localhost":
        try:
            loopback = ipaddress.IPv4Address(host).is_loopback
        except ValueError:
            loopback = False
        if not loopback:
            raise ValueError(
                f"refusing to bind {host!r}: the campaign service unpickles "
                "every frame, so it listens on IPv4 loopback addresses only "
                "(e.g. 127.0.0.1 or localhost)"
            )


class CampaignService:
    """Long-lived campaign server on the loopback interface.

    ``start()`` binds (``port=0`` picks a free port, re-read from
    ``self.port``) and serves connections on background threads;
    ``serve_forever()`` blocks until ``stop()`` (or a client's
    ``shutdown`` request).  Sweeps are serialized by a request lock,
    while ``ping``/``stats`` stay responsive on their own connections.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Optional[ResultStore] = None,
        verbose: bool = False,
    ):
        _check_loopback(host)
        self.host = host
        self.port = port
        self.store = store if store is not None else result_store()
        self.verbose = verbose
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._sweep_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._conns: Set[socket.socket] = set()
        self.requests = 0
        self.retried_requests = 0
        self.conn_errors = 0
        self.total_served_cells = 0
        self.total_computed_cells = 0
        self._request_attempts: "OrderedDict[str, int]" = OrderedDict()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "CampaignService":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(8)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        self._log(f"listening on {self.host}:{self.port}")
        return self

    def serve_forever(self) -> None:
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def stop(self) -> None:
        """Stop accepting, wait for an in-flight sweep, close connections.

        An in-flight sweep notices the stop flag before its next network
        or frame and drops its connection, so a stop with a sweep in
        flight winds down promptly instead of serving from a half-dead
        daemon.
        """
        self._stopped.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() first: close() alone does not wake a thread
            # blocked in accept(), and the blocked syscall would keep the
            # kernel socket alive — the port would stay bound and a
            # restart on the same port would fail with EADDRINUSE.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        thread = self._accept_thread
        if (
            thread is not None
            and thread is not threading.current_thread()
            and thread.is_alive()
        ):
            thread.join(timeout=5.0)
        # Wait for an in-flight sweep to wind down.  Without this, a
        # successor daemon sharing the store would race its final puts.
        if self._sweep_lock.acquire(timeout=60.0):
            self._sweep_lock.release()
        with self._state_lock:
            live = list(self._conns)
            self._conns.clear()
        for conn in live:
            try:
                conn.close()
            except OSError:
                pass

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[repro.serve] {message}", file=sys.stderr, flush=True)

    # -- connection handling -------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except (OSError, AttributeError):
                if self._stopped.is_set():
                    return  # listener closed by stop()
                self._conn_error("accept", "listener error")
                return
            # A reply is many small frames: without TCP_NODELAY, Nagle's
            # algorithm holds each one back until the client's delayed
            # ACK of the previous one (about 40 ms per request on Linux).
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._state_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _conn_error(self, where: str, exc) -> None:
        """Count and log one connection-level failure (flaky client, dead
        socket, mid-frame EOF).  Sockets closed by our own ``stop()`` are
        expected teardown, not errors."""
        if self._stopped.is_set():
            return
        with self._state_lock:
            self.conn_errors += 1
        self._log(f"connection error during {where}: {exc!r}")

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                while not self._stopped.is_set():
                    try:
                        request = recv_message(conn)
                    except ConnectionClosed:
                        return  # orderly client close between frames
                    except (ConnectionError, OSError) as exc:
                        self._conn_error("recv", exc)
                        return
                    if self._stopped.is_set():
                        return
                    try:
                        if not self._dispatch(conn, request):
                            return
                    except (ConnectionError, OSError) as exc:
                        self._conn_error("send", exc)
                        return
        finally:
            with self._state_lock:
                self._conns.discard(conn)

    def _dispatch(self, conn: socket.socket, request: dict) -> bool:
        """Handle one request; returns False to drop the connection."""
        op = request.get("op") if isinstance(request, dict) else None
        if op == "ping":
            send_message(conn, {"kind": "done", "ok": True, "pong": True})
            return True
        if op == "stats":
            send_message(conn, {
                "kind": "done", "ok": True,
                "requests": self.requests,
                "retried_requests": self.retried_requests,
                "conn_errors": self.conn_errors,
                "served_cells": self.total_served_cells,
                "computed_cells": self.total_computed_cells,
                "store": self.store.snapshot(),
            })
            return True
        if op == "shutdown":
            # Flag first, reply second: a client that saw the reply can
            # rely on the service being observably stopping.
            self._stopped.set()
            send_message(conn, {"kind": "done", "ok": True})
            self.stop()
            return False
        if op == "sweep":
            try:
                sweep = sweep_request(request)
                with self._sweep_lock:
                    stats = self._handle_sweep(conn, sweep)
                send_message(conn, {"kind": "done", "ok": True, "stats": stats})
            except (ConnectionError, OSError):
                raise  # the client is gone; no error frame can reach it
            except Exception as exc:  # noqa: BLE001 - reported to the client
                if self._stopped.is_set():
                    # A stopping service is unavailable, not a judge of
                    # the request: drop the connection so the client
                    # classifies this as retryable transport failure.
                    raise ConnectionError("service stopping") from exc
                self._log(f"sweep failed: {exc!r}")
                send_message(
                    conn, {"kind": "error", "ok": False, "message": repr(exc)}
                )
            return True
        send_message(
            conn, {"kind": "error", "ok": False,
                   "message": f"unknown op {op!r}"}
        )
        return True

    # -- idempotent request accounting ---------------------------------
    def _register_attempt(self, request_id: Optional[str]) -> int:
        """Record one attempt of ``request_id``; returns prior attempts.

        The id makes retries idempotent in the accounting: ``requests``
        counts logical requests once however often the client re-sends.
        """
        if request_id is None:
            self.requests += 1
            return 0
        prior = self._request_attempts.get(request_id, 0)
        self._request_attempts[request_id] = prior + 1
        while len(self._request_attempts) > MAX_REMEMBERED_REQUESTS:
            self._request_attempts.popitem(last=False)
        if prior == 0:
            self.requests += 1
        else:
            self.retried_requests += 1
        return prior

    # -- sweep execution -----------------------------------------------
    def _handle_sweep(self, conn: socket.socket, sweep: _Sweep) -> dict:
        task = build_task(sweep.task_name, preset=sweep.preset, seed=sweep.seed)
        store_before = self.store.snapshot()
        stats = {
            "task": {
                "name": task.name,
                "metric_name": task.metric_name,
                "higher_is_better": task.higher_is_better,
            },
            "served_cells": 0, "computed_cells": 0, "shared_cells": 0,
            "redundant_cells": 0,
            "retries": self._register_attempt(sweep.request_id),
            "store_seconds": 0.0, "compute_seconds": 0.0,
        }

        def send(m: int, scenario: int, source: str) -> None:
            if self._stopped.is_set():
                raise ConnectionError("service stopping")
            send_message(conn, {
                "kind": "partial", "method": work.methods[m].name,
                "scenario": scenario, "values": work.values[m][scenario],
                "source": source,
            })

        t0 = time.perf_counter()
        work = split_sweep(
            task, sweep.methods, sweep.specs, preset=sweep.preset,
            seed=sweep.seed, n_runs=sweep.n_runs, samples=sweep.samples,
            max_eval_samples=sweep.max_eval_samples,
            store=self.store if sweep.use_store else None,
        )
        stats["store_seconds"] += time.perf_counter() - t0
        for m in range(len(work.methods)):
            for idx in sorted(work.values[m]):
                stats["served_cells"] += work.cells(idx)
                send(m, idx, "store")

        # One network at a time, its frames before the next compute: a
        # stop lands before the later networks are computed.
        for m, pending in work.pending.items():
            if self._stopped.is_set():
                raise ConnectionError("service stopping")
            # Load (or train) the model off the compute clock.
            work.model(m)
            t0 = time.perf_counter()
            fresh = work.compute(m, pending)
            stats["compute_seconds"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            for idx, values in zip(pending, fresh):
                stats["redundant_cells"] += (
                    work.cells(idx) * work.record(m, idx, values)
                )
            stats["store_seconds"] += time.perf_counter() - t0
            network = work.networks[m]
            cells = sum(work.cells(idx) for idx in pending)
            stats["computed_cells"] += cells * len(network)
            stats["shared_cells"] += cells * (len(network) - 1)
            for k in network:
                for idx in pending:
                    send(k, idx, "computed")

        store_after = self.store.snapshot()
        stats["store"] = {
            k: store_after[k] - store_before[k] for k in store_after
        }
        # One row in a list: the layout perfbench's service workload reads.
        cells, seconds = stats["computed_cells"], stats["compute_seconds"]
        stats["workers"] = [{
            "worker": 0, "cells": cells, "seconds": seconds,
            "cells_per_sec": cells / seconds if seconds > 0 else 0.0,
        }]
        self.total_served_cells += stats["served_cells"]
        self.total_computed_cells += stats["computed_cells"]
        self._log(
            f"sweep done: served={stats['served_cells']} "
            f"computed={stats['computed_cells']} "
            f"shared={stats['shared_cells']} "
            f"redundant={stats['redundant_cells']}"
        )
        return stats
