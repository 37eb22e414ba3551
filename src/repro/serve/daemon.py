"""The campaign service daemon.

One :class:`CampaignService` process keeps everything a cold campaign
run pays for — trained models and their frozen deployment quantization
caches — warm across requests.  The warm state lives on per-worker model
replicas (fault hooks and deployment caches are per-model state), so
only the first request per (worker, task, method) pays to load and
quantize the model.

The daemon binds IPv4 loopback addresses only: it unpickles every frame
it receives, so any other ``host`` is refused at construction.

A sweep request gets one :class:`_Sweep` record that every step of its
sweep path reads, and is served one method at a time, in rounds:

1. scenarios already in the content-addressed result store stream back
   immediately (``source="store"``) — the store pre-check is what makes
   a repeated or overlapping sweep compute **zero** redundant cells;
2. the remaining scenarios (original scenario indices, so values are
   bit-identical to a cold serial run) are grouped by fault kind into
   :class:`ShardUnit`\\ s of scenario indices and placed on workers by
   the deterministic LPT scheduler;
3. each worker runs its units' scenarios as one
   :class:`~repro.faults.campaign.MonteCarloCampaign` sweep on the
   default engine (a unit re-issued
   after a worker death first re-checks the store per scenario, so it
   never recomputes what a previous round already landed), lands
   fresh values in the store, and streams one partial frame per
   scenario as soon as it completes;
4. a worker death — a raised exception, an injected chaos kill, or a
   **hang** declared by the per-unit watchdog (no heartbeat for
   ``unit_deadline`` seconds) — returns its unfinished units to the
   pool; survivors get a deterministic re-shard, dead workers with
   respawn budget left (``max_respawns`` per worker per sweep) are
   revived with a **fresh replica** (re-warmed caches on first use), and
   the round counter advances.  Round numbers restart for each method.
   Assignments of every round are recorded in the reply stats so
   re-shard determinism is directly assertable.

Rounds stay per method: the workers are threads sharing one interpreter
lock, and one round over every method's units measured slower end to
end, because two units running at once cost more than they save.

Fault recovery is supervised from the sweep's connection thread: it
drains worker events with a watchdog tick, declares hung workers dead
(their late events are discarded — an abandoned worker can never
corrupt a round it no longer belongs to), and re-shards exactly as for
a clean crash.  Injected faults come from a deterministic
:class:`~repro.serve.chaos.ChaosSchedule` (worker kill/hang, frame
drop/delay/corrupt through the protocol shim), so every recovery path
is replayable bit-for-bit.

The reply's ``stats`` carry per-request store-counter deltas
(hit/miss/put/merge), ``redundant_cells`` (cells computed whose store
entry already existed — the quantity the acceptance criteria pin to
zero), recovery counters (``worker_deaths`` / ``hangs`` / ``respawns``
/ ``retries`` / ``frames_dropped``, accumulated across retried
attempts of one idempotent ``request_id``), and per-worker
``cells``/``seconds``/``cells_per_sec`` rows.
"""

from __future__ import annotations

import ipaddress
import socket
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..faults import FaultSpec, MonteCarloCampaign
from ..faults.campaign import scenario_cells
from ..models import MethodConfig
from ..eval.cache import ResultStore, campaign_key, result_store
from ..eval.campaigns import campaign_settings, model_and_evaluator
from ..eval.campaigns import split_stored
from ..eval.tasks import Task, build_task
from .chaos import ChaosSchedule
from .protocol import ConnectionClosed, recv_message, send_message
from .shard import ShardUnit, assign_units, revive_workers, shard_units

#: Recovery counters accumulated across retried attempts of one
#: idempotent ``request_id`` (the client re-sends the same id, so the
#: final reply accounts for everything its earlier attempts triggered).
RECOVERY_COUNTERS = (
    "worker_deaths",
    "hangs",
    "respawns",
    "reshards",
    "frames_dropped",
    "frames_delayed",
    "frames_corrupted",
)

#: Remembered request ids / counter carry-overs (FIFO-bounded).
MAX_REMEMBERED_REQUESTS = 256

#: Seconds the round supervisor waits on worker events before it checks
#: heartbeats against ``unit_deadline``.
WATCHDOG_TICK = 0.05


@dataclass
class _Sweep:
    """One sweep request's state, read by every step of its sweep path.

    It lives per request, never on the service: a worker the watchdog
    declared hung may still finish its unit after the sweep has moved on
    to the next method, and must write under its own method's ``keys``.
    """

    conn: socket.socket
    chaos: Optional[ChaosSchedule]
    attempt: int
    stats: dict
    alive: List[int]
    task: Task
    specs: Sequence[FaultSpec]
    preset: str
    seed: int
    n_runs: int
    samples: int
    max_eval_samples: Optional[int]
    use_store: bool
    #: Worker id → ``{"cells", "seconds"}`` for the reply's worker rows.
    per_worker: Dict[int, Dict[str, float]] = field(default_factory=dict)
    dead: Set[int] = field(default_factory=set)
    #: Respawns per worker; the budget spans the whole request.
    respawns_used: Dict[int, int] = field(default_factory=dict)
    #: Method name → config and per-scenario store keys, set by the
    #: method's store pre-check.
    methods: Dict[str, MethodConfig] = field(default_factory=dict)
    keys: Dict[str, List[str]] = field(default_factory=dict)

    def cells(self, scenario: int) -> int:
        """Work cells of one scenario (one if it is fault-free)."""
        return len(scenario_cells(self.specs[scenario], scenario, self.n_runs))

    def pair_key(self, wid: int, method: str) -> Tuple[Hashable, ...]:
        """Warm-replica key: the worker and every input of its
        ``(model, evaluator)`` pair, so a later request reuses it."""
        return (
            wid, self.task.name, self.task.seed, self.preset, self.seed,
            self.methods[method], self.samples, self.max_eval_samples,
        )


def _replicate(model):
    """Worker-private model copy (hooks and deploy caches are per-model)."""
    import copy

    replica = copy.deepcopy(model)
    for module in replica.modules():
        if hasattr(module, "invalidate_quant_cache"):
            module.invalidate_quant_cache()
    return replica


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
    """Long-lived sharded campaign server on the loopback interface.

    ``start()`` binds (``port=0`` picks a free port, re-read from
    ``self.port``) and serves connections on background threads;
    ``serve_forever()`` blocks until ``stop()`` (or a client's
    ``shutdown`` request).  Sweeps are serialized by a request lock —
    parallelism lives *inside* a request, across shard workers — while
    ``ping``/``stats`` stay responsive on their own connections.

    ``unit_deadline`` is the per-unit watchdog: a worker that has not
    heartbeat for that many seconds while holding a unit is declared
    dead exactly as if it had crashed (default 300 s — far beyond any
    tiny/small unit; chaos tests shrink it).  ``max_respawns`` bounds
    how many times each dead worker is revived per sweep before the
    service degrades to the survivors (0 disables respawn entirely).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store: Optional[ResultStore] = None,
        verbose: bool = False,
        unit_deadline: float = 300.0,
        max_respawns: int = 1,
    ):
        _check_loopback(host)
        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.store = store if store is not None else result_store()
        self.verbose = verbose
        self.unit_deadline = float(unit_deadline)
        self.max_respawns = max(0, int(max_respawns))
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._sweep_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._conns: Set[socket.socket] = set()
        # Warm ``_Sweep.pair_key`` → (model replica, evaluator); the
        # replica carries its deployment cache across requests.
        self._pairs: Dict[Tuple[Hashable, ...], Tuple[object, object]] = {}
        self.requests = 0
        self.retried_requests = 0
        self.conn_errors = 0
        self.total_served_cells = 0
        self.total_computed_cells = 0
        self.recovery_totals: Dict[str, int] = {
            k: 0 for k in RECOVERY_COUNTERS
        }
        self._request_attempts: "OrderedDict[str, int]" = OrderedDict()
        self._request_counters: "OrderedDict[str, Dict[str, int]]" = (
            OrderedDict()
        )

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
        """Stop accepting, close live connections, interrupt sweeps.

        Closing the tracked connections wakes every handler blocked in a
        read and fails every in-flight sweep's next frame send, so a
        stop with a sweep in flight winds down promptly instead of
        serving from a half-dead daemon; workers notice the flag at
        their next unit boundary.
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
        # Wait for an in-flight sweep to wind down (its next frame send
        # fails now that the connection is closed, and its workers stop
        # at their unit boundary).  Without this, a successor daemon
        # sharing the store would race the old workers' final puts.
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
            send_message(conn, {"kind": "done", "ok": True, "pong": True,
                                "workers": self.workers})
            return True
        if op == "stats":
            send_message(conn, {
                "kind": "done", "ok": True,
                "requests": self.requests,
                "retried_requests": self.retried_requests,
                "conn_errors": self.conn_errors,
                "served_cells": self.total_served_cells,
                "computed_cells": self.total_computed_cells,
                "recovery": dict(self.recovery_totals),
                "store": self.store.snapshot(),
                "warm_pairs": len(self._pairs),
                "workers": self.workers,
                "unit_deadline": self.unit_deadline,
                "max_respawns": self.max_respawns,
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
                with self._sweep_lock:
                    stats = self._handle_sweep(conn, request)
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
        counts logical requests once however often the client re-sends,
        and recovery counters carry over so the final reply reports
        everything earlier attempts triggered.
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

    def _carried_counters(self, request_id: Optional[str]) -> Dict[str, int]:
        if request_id is None:
            return {k: 0 for k in RECOVERY_COUNTERS}
        saved = self._request_counters.get(request_id, {})
        return {k: saved.get(k, 0) for k in RECOVERY_COUNTERS}

    def _save_counters(
        self, request_id: Optional[str], stats: dict, carried: Dict[str, int]
    ) -> None:
        for k in RECOVERY_COUNTERS:
            self.recovery_totals[k] += stats.get(k, 0) - carried.get(k, 0)
        if request_id is None:
            return
        self._request_counters[request_id] = {
            k: stats.get(k, 0) for k in RECOVERY_COUNTERS
        }
        while len(self._request_counters) > MAX_REMEMBERED_REQUESTS:
            self._request_counters.popitem(last=False)

    # -- sweep execution -----------------------------------------------
    def _handle_sweep(self, conn: socket.socket, request: dict) -> dict:
        preset = request["preset"]
        seed = request["seed"]
        n_runs, samples, max_eval_samples = campaign_settings(
            preset, request.get("n_runs"), request.get("samples"),
            request.get("max_eval_samples", -1),
        )
        chaos = request.get("chaos")
        if not isinstance(chaos, (ChaosSchedule, type(None))):
            raise ValueError(f"chaos must be a ChaosSchedule, got {chaos!r}")
        task: Task = build_task(request["task"], preset=preset, seed=seed)
        methods: Sequence[MethodConfig] = request["methods"]
        request_id = request.get("request_id")
        attempt = int(request.get("attempt") or 0)
        prior_attempts = self._register_attempt(request_id)
        carried = self._carried_counters(request_id)

        store_before = self.store.snapshot()
        stats = {
            "task": {
                "name": task.name,
                "metric_name": task.metric_name,
                "higher_is_better": task.higher_is_better,
            },
            "served_cells": 0, "computed_cells": 0, "redundant_cells": 0,
            "rounds": 0, "attempt": attempt,
            "retries": prior_attempts,
            "store_seconds": 0.0, "compute_seconds": 0.0,
            "assignments": [],
        }
        stats.update(carried)
        sweep = _Sweep(
            conn=conn, chaos=chaos, attempt=attempt, stats=stats,
            alive=list(range(self.workers)), task=task,
            specs=request["specs"], preset=preset, seed=seed, n_runs=n_runs,
            samples=samples, max_eval_samples=max_eval_samples,
            use_store=bool(request.get("use_store", True)),
        )

        try:
            for method in methods:
                if self._stopped.is_set():
                    raise RuntimeError("service stopping")
                self._sweep_method(sweep, method)
        finally:
            self._save_counters(request_id, stats, carried)

        store_after = self.store.snapshot()
        stats["store"] = {
            k: store_after[k] - store_before[k] for k in store_after
        }
        stats["workers"] = [
            {
                "worker": wid,
                "cells": int(row["cells"]),
                "seconds": row["seconds"],
                "cells_per_sec": (
                    row["cells"] / row["seconds"] if row["seconds"] > 0 else 0.0
                ),
            }
            for wid, row in sorted(sweep.per_worker.items())
        ]
        self.total_served_cells += stats["served_cells"]
        self.total_computed_cells += stats["computed_cells"]
        self._log(
            f"sweep done: served={stats['served_cells']} "
            f"computed={stats['computed_cells']} "
            f"redundant={stats['redundant_cells']} rounds={stats['rounds']}"
        )
        return stats

    def _send_frame(self, sweep: _Sweep, frame: dict) -> None:
        """Single send site for partial frames — the chaos protocol shim.

        A ``frame_drop`` event swallows the frame (the client notices
        the missing scenario at ``done`` and retries), ``frame_delay``
        sleeps past the schedule's ``delay`` before sending (tripping a
        client request deadline when one is armed), and
        ``frame_corrupt`` sends a payload that fails its CRC-32
        client-side.  All three are counted in the reply stats.
        """
        chaos, stats = sweep.chaos, sweep.stats
        event = None
        if chaos is not None:
            event = chaos.frame_event(
                sweep.attempt, frame["method"], frame["scenario"]
            )
        if event == "frame_drop":
            stats["frames_dropped"] += 1
            self._log(
                f"chaos: dropping frame {frame['method']}/{frame['scenario']}"
            )
            return
        if event == "frame_delay":
            stats["frames_delayed"] += 1
            self._log(
                f"chaos: delaying frame {frame['method']}/{frame['scenario']} "
                f"by {chaos.delay:.2f}s"
            )
            time.sleep(chaos.delay)
        corrupt = event == "frame_corrupt"
        if corrupt:
            stats["frames_corrupted"] += 1
            self._log(
                f"chaos: corrupting frame {frame['method']}/{frame['scenario']}"
            )
        send_message(sweep.conn, frame, corrupt=corrupt)

    def _sweep_method(self, sweep: _Sweep, method: MethodConfig) -> None:
        """Serve one method's scenarios: store first, then shard rounds."""
        stats = sweep.stats
        sweep.methods[method.name] = method
        keys = sweep.keys[method.name] = [
            campaign_key(sweep.task, method, spec, sweep.n_runs, sweep.samples,
                         sweep.seed, sweep.max_eval_samples)
            for spec in sweep.specs
        ]
        # Store pre-check: completed scenarios stream back without touching
        # a worker.
        t0 = time.perf_counter()
        served, pending = split_stored(
            keys, sweep.n_runs, self.store if sweep.use_store else None
        )
        stats["store_seconds"] += time.perf_counter() - t0
        for idx, values in served.items():
            stats["served_cells"] += sweep.cells(idx)
            self._send_frame(sweep, {
                "kind": "partial", "method": method.name,
                "scenario": idx, "values": values, "source": "store",
            })
        units = shard_units(
            [cell for idx in pending
             for cell in scenario_cells(sweep.specs[idx], idx, sweep.n_runs)],
            method.name,
        )

        round_no = 0
        while units:
            if self._stopped.is_set():
                raise RuntimeError("service stopping")
            if not sweep.alive:
                raise RuntimeError(
                    f"all {self.workers} workers died with "
                    f"{len(units)} shard units unfinished"
                )
            assignment = {
                wid: assigned
                for wid, assigned in assign_units(units, sweep.alive).items()
                if assigned
            }
            for wid, assigned in sorted(assignment.items()):
                stats["assignments"].append({
                    "round": round_no, "method": method.name, "worker": wid,
                    "units": [u.index for u in assigned],
                    "cells": sum(u.n_cells for u in assigned),
                })
                # Replicas are built on this thread (model builds may touch
                # the process-global RNG) and kept warm across requests; a
                # respawned worker's pair was dropped on death, so this is
                # where its replica re-warms.
                self._ensure_pair(sweep, wid, method.name)
            completed = self._run_round(sweep, assignment, round_no)
            units = [u for u in units if u.index not in completed]
            round_no += 1
            stats["rounds"] += 1
            if units:
                stats["reshards"] = stats.get("reshards", 0) + 1
                # Units going back to the pool are the service-side retries.
                stats["retries"] += len(units)
                for wid in revive_workers(
                    sorted(sweep.dead), sweep.respawns_used, self.max_respawns
                ):
                    sweep.respawns_used[wid] = (
                        sweep.respawns_used.get(wid, 0) + 1
                    )
                    sweep.dead.discard(wid)
                    sweep.alive.append(wid)
                    stats["respawns"] += 1
                    self._log(
                        f"respawning worker {wid} "
                        f"({sweep.respawns_used[wid]}/{self.max_respawns} "
                        "respawns used)"
                    )
                sweep.alive.sort()

    def _run_round(
        self, sweep: _Sweep, assignment: Dict[int, List[ShardUnit]],
        round_no: int,
    ) -> Set[int]:
        """Supervise one shard round; returns the completed unit indices.

        The sweep thread is the supervisor: it drains worker events with
        a :data:`WATCHDOG_TICK` timeout and, whenever the queue stays
        quiet, checks every active worker's heartbeat against
        ``unit_deadline``.  A worker past the deadline is *declared
        dead* — its ``abandoned`` event is set (waking a chaos-simulated
        hang immediately), it leaves the pool exactly like a crashed
        worker, and any event it emits later is discarded, so an
        abandoned worker can never corrupt the accounting of a round it
        was evicted from.  Any exception — above all the client going
        away, or ``stop()`` closing its socket — abandons every worker
        and joins them before unwinding: a worker left running would
        share its warm replica with a retried attempt's round and race
        on per-model fault-hook state.
        """
        stats = sweep.stats
        active = set(assignment)
        events: SimpleQueue = SimpleQueue()
        hearts = {wid: time.monotonic() for wid in active}
        abandoned = {wid: threading.Event() for wid in active}
        threads = {
            wid: threading.Thread(
                target=self._worker_round,
                args=(sweep, wid, units, round_no, events, hearts,
                      abandoned[wid]),
                name=f"serve-worker-{wid}",
                daemon=True,
            )
            for wid, units in sorted(assignment.items())
        }
        for thread in threads.values():
            thread.start()
        completed: Set[int] = set()
        hung: Set[int] = set()

        def retire(wid: int) -> None:
            """Take a dead or hung worker out of the round and the pool,
            and drop its replica of this round's method."""
            active.discard(wid)
            if wid in sweep.alive:
                sweep.alive.remove(wid)
            sweep.dead.add(wid)
            method = assignment[wid][0].method
            self._pairs.pop(sweep.pair_key(wid, method), None)

        try:
            while active:
                try:
                    event = events.get(timeout=WATCHDOG_TICK)
                except Empty:
                    now = time.monotonic()
                    for wid in sorted(active):
                        if now - hearts[wid] <= self.unit_deadline:
                            continue
                        hung.add(wid)
                        abandoned[wid].set()
                        retire(wid)
                        stats["hangs"] += 1
                        self._log(
                            f"worker {wid} hung in round {round_no} (no "
                            f"heartbeat for {self.unit_deadline:.1f}s); "
                            "declared dead"
                        )
                    continue
                wid = event["worker"]
                if wid in hung:
                    continue  # late event from an abandoned worker
                if event["kind"] == "unit":
                    completed.add(event["unit"])
                    row = sweep.per_worker.setdefault(
                        wid, {"cells": 0, "seconds": 0.0}
                    )
                    row["cells"] += event["computed_cells"]
                    row["seconds"] += event["compute_seconds"]
                    for name in ("computed_cells", "served_cells",
                                 "redundant_cells", "store_seconds",
                                 "compute_seconds"):
                        stats[name] += event[name]
                    for scenario_idx, values, source in event["payloads"]:
                        self._send_frame(sweep, {
                            "kind": "partial", "method": event["method"],
                            "scenario": scenario_idx, "values": values,
                            "source": source, "worker": wid,
                            "round": round_no,
                        })
                elif event["kind"] == "exit":
                    active.discard(wid)
                elif event["kind"] == "death":
                    retire(wid)
                    stats["worker_deaths"] += 1
                    self._log(
                        f"worker {wid} died in round {round_no}: "
                        f"{event['error']}"
                    )
        except BaseException:
            for flag in abandoned.values():
                flag.set()
            raise
        finally:
            for wid, thread in threads.items():
                if wid not in hung:
                    thread.join()
        return completed

    def _ensure_pair(self, sweep: _Sweep, wid: int, method: str) -> None:
        key = sweep.pair_key(wid, method)
        if key in self._pairs:
            return
        model, evaluator = model_and_evaluator(
            sweep.task, sweep.methods[method], sweep.preset, sweep.seed,
            sweep.samples, sweep.max_eval_samples,
        )
        # The trained model is the shared memory-cached one; fault hooks
        # are per-model state, so every worker gets a private copy.
        self._pairs[key] = (_replicate(model), evaluator)
        self._log(f"built replica for worker {wid} / {method}")

    def _worker_round(
        self, sweep: _Sweep, wid: int, units: Sequence[ShardUnit],
        round_no: int, events: SimpleQueue, hearts: Dict[int, float],
        abandoned: threading.Event,
    ) -> None:
        try:
            for done_units, unit in enumerate(units):
                if abandoned.is_set():
                    return  # declared dead; the round moved on without us
                if self._stopped.is_set():
                    break
                hearts[wid] = time.monotonic()
                event = (
                    sweep.chaos.worker_event(wid, round_no, done_units)
                    if sweep.chaos is not None else None
                )
                if event == "kill":
                    events.put({"kind": "death", "worker": wid,
                                "error": "chaos kill"})
                    return
                if event == "hang":
                    # Stop heartbeating and go quiet; the watchdog will
                    # declare us dead and set `abandoned`, at which point
                    # we exit without emitting anything.
                    abandoned.wait(timeout=self.unit_deadline * 4.0 + 1.0)
                    return
                events.put(self._process_unit(
                    sweep, wid, unit, recheck=round_no > 0
                ))
            events.put({"kind": "exit", "worker": wid})
        except BaseException as exc:  # noqa: BLE001 - death → re-shard
            events.put({"kind": "death", "worker": wid, "error": repr(exc)})

    def _process_unit(
        self, sweep: _Sweep, wid: int, unit: ShardUnit, recheck: bool
    ) -> dict:
        # This method's keys, not the latest method's: a worker declared
        # hung may finish its unit after the sweep moved on.
        keys = sweep.keys[unit.method]
        model, evaluator = self._pairs[sweep.pair_key(wid, unit.method)]
        event = {
            "kind": "unit", "worker": wid, "unit": unit.index,
            "method": unit.method, "payloads": [], "computed_cells": 0,
            "served_cells": 0, "redundant_cells": 0, "store_seconds": 0.0,
            "compute_seconds": 0.0,
        }
        # Per-scenario store re-check, only for a unit re-issued after a
        # worker death (round > 0): it serves what another worker already
        # landed instead of recomputing it.  In round 0 every scenario
        # just missed the sweep's pre-check, and sweeps are serialized by
        # ``_sweep_lock``, so a second lookup could only miss again.
        t0 = time.perf_counter()
        served, pending = split_stored(
            keys, sweep.n_runs,
            self.store if recheck and sweep.use_store else None,
            indices=unit.scenarios,
        )
        event["store_seconds"] += time.perf_counter() - t0
        for scenario_idx, values in served.items():
            event["served_cells"] += sweep.cells(scenario_idx)
            event["payloads"].append((scenario_idx, values, "store"))
        if not pending:
            return event
        campaign = MonteCarloCampaign(
            model, evaluator, n_runs=sweep.n_runs, base_seed=sweep.seed
        )
        t0 = time.perf_counter()
        results = campaign.sweep(
            [sweep.specs[i] for i in pending], scenario_indices=pending
        )
        event["compute_seconds"] += time.perf_counter() - t0
        for scenario_idx, result in zip(pending, results):
            event["computed_cells"] += sweep.cells(scenario_idx)
            if sweep.use_store:
                t0 = time.perf_counter()
                newly = self.store.put(keys[scenario_idx], result.values)
                event["store_seconds"] += time.perf_counter() - t0
                if not newly:
                    event["redundant_cells"] += sweep.cells(scenario_idx)
            event["payloads"].append((scenario_idx, result.values, "computed"))
        return event
