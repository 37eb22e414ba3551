"""Client API for the campaign service.

:class:`ServiceClient` speaks the length-prefixed protocol to a running
:class:`~repro.serve.daemon.CampaignService` and reassembles streamed
partial frames into the same :class:`~repro.eval.campaigns.RobustnessSweep`
the in-process driver returns — both assemble it with
:func:`~repro.eval.campaigns.assemble_sweep`, so a service-served sweep
is bit-identical to a serial one.  Transport time
is accounted under the ``transport`` profile stage, never attributed to
``trace``/``replay``/``attach``.

Fault tolerance lives at this layer:

* **deadlines** — ``connect_timeout`` bounds TCP connect,
  ``request_timeout`` bounds every blocking socket read/write (a stalled
  frame trips it instead of hanging the caller for the default 600 s);
* **retries with deterministic backoff** — transport-class failures
  (refused/dropped connections, deadline trips, CRC
  :class:`~repro.serve.protocol.ChecksumError`\\ s, replies missing
  scenarios) tear down the socket and re-send the *same* request up to
  ``retries`` more times, sleeping ``backoff * 2**attempt`` scaled by a
  jitter factor that is a pure function of ``(request_id, attempt)`` —
  reproducible, yet de-synchronized across concurrent clients;
* **idempotent request ids** — every logical sweep carries one
  ``request_id`` (re-sent verbatim on retry), so the daemon counts the
  request once and reports how many attempts came before;
* application errors (an ``error`` frame from the daemon) are **not**
  retried — the request itself is bad, and re-sending it cannot help.

When every attempt fails the client raises :class:`ServiceUnavailable`;
callers wanting graceful degradation catch it and fall back to the
in-process engine (the CLI's ``--fallback-local``), which is safe
because the determinism contract makes both paths bit-identical.
"""

from __future__ import annotations

import hashlib
import socket
import time
import uuid
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..faults import FaultSpec
from ..models import MethodConfig
from ..eval.campaigns import RobustnessSweep, assemble_sweep
from .protocol import recv_message, send_message

Address = Union[str, Tuple[str, int]]

#: Transport-class failures worth retrying: connection setup/teardown
#: (``ConnectionError`` and subclasses, including ``ProtocolError`` /
#: ``ChecksumError``), socket deadlines and OS-level failures
#: (``OSError``), and structurally incomplete replies.
RETRYABLE_ERRORS = (ConnectionError, OSError)


class ServiceUnavailable(ConnectionError):
    """Every connection/retry attempt against the service failed.

    Carries the last underlying error as ``__cause__``.  Callers opting
    into graceful degradation catch this and run the sweep in-process.
    """


class IncompleteSweepError(ConnectionError):
    """A sweep reply completed but is missing scenario frames.

    Happens when reply frames are lost in flight: the ``done`` frame
    arrived, but some scenario never did.  Retryable — the daemon landed every computed value in
    the result store, so the retried request streams the missing
    scenarios from the store without recomputing anything.
    """


def backoff_delay(
    request_id: str, attempt: int, base: float, cap: float = 30.0
) -> float:
    """Deterministic exponential backoff with per-request jitter.

    ``base * 2**attempt``, scaled by a jitter factor in ``[0.5, 1.0)``
    that is a pure function of ``(request_id, attempt)`` (first 8 bytes
    of their SHA-256).  Reproducible — the same retried request waits
    the same schedule every run — while concurrent clients with distinct
    request ids spread out instead of stampeding in lockstep.
    """
    digest = hashlib.sha256(
        f"{request_id}:{attempt}".encode("utf-8")
    ).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**65
    return min(cap, base * (2.0**attempt)) * jitter


class ServiceClient:
    """One logical connection to a campaign service daemon.

    Usable as a context manager; the socket is opened lazily on the
    first request, re-opened automatically after any transport failure,
    and a single client may issue any number of requests (the daemon
    keeps per-connection state out of the protocol).

    ``retries`` is the number of *additional* attempts after the first
    (so ``retries=2`` means at most three sends of one request);
    ``retries=0`` fails fast on the first transport error.
    """

    def __init__(
        self,
        address: Address,
        connect_timeout: float = 5.0,
        request_timeout: float = 600.0,
        retries: int = 2,
        backoff: float = 0.25,
    ):
        self.host, self.port = _parse_address(address)
        self.connect_timeout = float(connect_timeout)
        self.request_timeout = float(request_timeout)
        self.retries = max(0, int(retries))
        self.backoff = float(backoff)
        self._sock: Optional[socket.socket] = None

    def _connection(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            # Connect and request deadlines are separate knobs: connect
            # failures are fast/cheap to retry, requests legitimately
            # stream for a long time.
            sock.settimeout(self.request_timeout)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        """Close the socket (if open) and always reset it to None.

        Also the error-recovery primitive: after any transport failure
        the retry loop calls ``close()`` so the next attempt dials a
        fresh connection instead of wedging on the dead socket.
        """
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- retry loop ----------------------------------------------------
    def _attempts(self, request_id: str):
        """Yield attempt numbers, sleeping the backoff between them."""
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(backoff_delay(request_id, attempt - 1, self.backoff))
            yield attempt

    def _with_retries(self, request_id: str, fn: Callable[[int], dict]):
        """Run ``fn(attempt)``, retrying transport-class failures.

        Any :data:`RETRYABLE_ERRORS` tears the socket down and re-runs
        ``fn`` after the deterministic backoff; exhaustion raises
        :class:`ServiceUnavailable` from the last error.  Application
        errors propagate immediately.
        """
        last: Optional[BaseException] = None
        for attempt in self._attempts(request_id):
            try:
                return fn(attempt)
            except RETRYABLE_ERRORS as exc:
                self.close()
                last = exc
        raise ServiceUnavailable(
            f"service at {self.host}:{self.port} unavailable after "
            f"{self.retries + 1} attempt(s): {last!r}"
        ) from last

    # -- simple ops ----------------------------------------------------
    def _roundtrip(self, request: dict) -> dict:
        request_id = request.setdefault("request_id", uuid.uuid4().hex)

        def attempt_once(attempt: int) -> dict:
            sock = self._connection()
            send_message(sock, dict(request, attempt=attempt))
            reply = recv_message(sock)
            if not reply.get("ok", False):
                raise RuntimeError(
                    f"service error: {reply.get('message', 'unknown')}"
                )
            return reply

        return self._with_retries(request_id, attempt_once)

    def ping(self) -> dict:
        """Liveness check; the reply carries ``pong=True``."""
        return self._roundtrip({"op": "ping"})

    def stats(self) -> dict:
        """Cumulative daemon statistics (requests, cells, store counters)."""
        return self._roundtrip({"op": "stats"})

    def shutdown(self) -> None:
        """Ask the daemon to exit (the reply confirms before it stops).

        Never retried: a lost reply is indistinguishable from a daemon
        that already stopped, and re-dialing a stopping service to ask
        it to stop again helps nobody.
        """
        try:
            sock = self._connection()
            send_message(
                sock,
                {"op": "shutdown", "request_id": uuid.uuid4().hex,
                 "attempt": 0},
            )
            recv_message(sock)
        finally:
            self.close()

    # -- sweeps --------------------------------------------------------
    def sweep(
        self,
        task_name: str,
        methods: Sequence[MethodConfig],
        specs: Sequence[FaultSpec],
        preset: str = "small",
        seed: int = 0,
        n_runs: Optional[int] = None,
        samples: Optional[int] = None,
        max_eval_samples: Optional[int] = -1,
        use_store: bool = True,
        on_partial: Optional[Callable[[dict], None]] = None,
    ) -> Tuple[RobustnessSweep, dict]:
        """Run one robustness sweep through the service.

        Returns ``(sweep, stats)`` where ``sweep`` matches
        :func:`repro.eval.campaigns.run_robustness_sweep` bit for bit and
        ``stats`` is the daemon's per-request accounting (store counter
        deltas, ``redundant_cells``, ``retries``, the compute's
        throughput row).  ``on_partial`` observes every streamed frame
        as it arrives — each carries one scenario's full value array and
        its source (``"store"`` or ``"computed"``).  A request the
        daemon rejects, or whose compute fails, raises ``RuntimeError``
        with the daemon's message.

        The whole sweep is one idempotent request: retried attempts
        re-send the same ``request_id`` with an incremented ``attempt``,
        and everything a failed attempt computed is served from the
        result store on the retry, so no cell is ever computed twice.
        """
        request = {
            "op": "sweep",
            "task": task_name,
            "preset": preset,
            "seed": seed,
            "n_runs": n_runs,
            "samples": samples,
            "max_eval_samples": max_eval_samples,
            "methods": list(methods),
            "specs": list(specs),
            "use_store": use_store,
            "request_id": uuid.uuid4().hex,
        }

        def attempt_once(attempt: int) -> Tuple[RobustnessSweep, dict]:
            sock = self._connection()
            send_message(sock, dict(request, attempt=attempt))
            values_by_method: Dict[str, Dict[int, np.ndarray]] = {}
            while True:
                frame = recv_message(sock)
                kind = frame.get("kind")
                if kind == "partial":
                    per_scenario = values_by_method.setdefault(
                        frame["method"], {}
                    )
                    per_scenario[frame["scenario"]] = np.asarray(
                        frame["values"], dtype=np.float64
                    )
                    if on_partial is not None:
                        on_partial(frame)
                    continue
                if kind == "error":
                    raise RuntimeError(
                        f"service error: {frame.get('message', 'unknown')}"
                    )
                if kind == "done":
                    stats = frame["stats"]
                    break
                raise RuntimeError(f"unexpected frame kind {kind!r}")
            return (
                self._assemble(methods, specs, stats, values_by_method),
                stats,
            )

        return self._with_retries(request["request_id"], attempt_once)

    @staticmethod
    def _assemble(
        methods: Sequence[MethodConfig],
        specs: Sequence[FaultSpec],
        stats: dict,
        values_by_method: Dict[str, Dict[int, np.ndarray]],
    ) -> RobustnessSweep:
        values: Dict[str, List[np.ndarray]] = {}
        for method in methods:
            per_scenario = values_by_method.get(method.name, {})
            missing = [i for i in range(len(specs)) if i not in per_scenario]
            if missing:
                # A dropped frame, not a bad request: the done frame
                # arrived but these scenarios never did.  Retryable; the
                # retry streams them from the store.
                raise IncompleteSweepError(
                    f"service reply for {method.name!r} is missing "
                    f"scenarios {missing}"
                )
            values[method.name] = [per_scenario[i] for i in range(len(specs))]
        meta = stats["task"]
        return assemble_sweep(
            meta["name"], meta["metric_name"], meta["higher_is_better"],
            methods, specs, values,
        )


def _parse_address(address: Address) -> Tuple[str, int]:
    if isinstance(address, tuple):
        return address[0], int(address[1])
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)
