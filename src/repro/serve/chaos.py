"""Deterministic chaos engine for the campaign service.

Fault-recovery code is only trustworthy if the faults themselves are
reproducible: a flaky test that kills a worker "sometimes" proves
nothing, and a chaos run that cannot be replayed cannot be debugged.
This module makes every injected fault a **pure function of a seed**:

* a :class:`ChaosSchedule` names the event kinds it may emit
  (:data:`EVENT_KINDS` — worker ``kill``/``hang``, frame
  ``frame_drop``/``frame_delay``/``frame_corrupt``), a firing
  probability, and a trial budget;
* every *decision site* in the service is identified by stable
  coordinates — ``(worker, round, units_done)`` for worker events,
  ``(attempt, method, scenario)`` for frame events — hashed to an
  :func:`event_index`;
* whether an event fires is decided by one draw from
  ``SeedSequence(chaos_seed, spawn_key=(kind, event_index))`` — no
  shared counters, no wall clock, no thread-ordering dependence, so
  concurrent workers consult the schedule without races and two runs of
  the same (schedule, request) inject byte-identical fault sequences.

Boundedness is structural, not statistical: the *trial* coordinate (the
shard round for worker events, the client retry attempt for frame
events) gates every decision on ``trial < max_trials``, so after the
budgeted number of rounds/retries the schedule goes quiet and the sweep
is guaranteed to drain.  That is what lets the chaos tests assert both
"recovery happened" (counters non-zero) and "the result is bit-identical
to the cold serial reference" under every schedule.

A sweep request carries either no chaos or one :class:`ChaosSchedule`;
the daemon answers any other ``chaos`` value with an error frame.  To
kill one chosen worker, pick the seed of a ``kill`` schedule by a search
over :meth:`ChaosSchedule.worker_event`, which is a pure function.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Every event kind a schedule may emit.  ``kill`` makes a worker die
#: cleanly before its next unit; ``hang`` makes it stop responding (the
#: daemon's watchdog must declare it dead); the ``frame_*`` kinds act on
#: reply frames through the protocol shim (dropped entirely, delayed by
#: ``delay`` seconds, or sent with a corrupted payload so the CRC check
#: fires client-side).
EVENT_KINDS = ("kill", "hang", "frame_drop", "frame_delay", "frame_corrupt")

_WORKER_KINDS = ("kill", "hang")
_FRAME_KINDS = ("frame_drop", "frame_delay", "frame_corrupt")


def event_index(*coords) -> int:
    """Stable integer identity of one chaos decision site.

    A pure function of the coordinate tuple (CRC-32 of the canonical
    ``repr``), identical across processes, threads, and sessions — the
    spawn key that makes each site's draw independent yet replayable.
    """
    blob = "\x1f".join(repr(c) for c in coords).encode("utf-8")
    return zlib.crc32(blob)


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, replayable schedule of service faults.

    ``kinds`` selects which of :data:`EVENT_KINDS` may fire, each with
    probability ``p`` per decision site; ``max_trials`` bounds how many
    trials (shard rounds for worker events, client retry attempts for
    frame events) stay chaotic before the schedule goes quiet, which
    bounds the recovery work a sweep can be forced into; ``delay`` is
    the injected latency of a ``frame_delay`` event in seconds.

    The schedule is a frozen value object: picklable (it rides inside
    the sweep request), hashable, and stateless — both ends of the wire
    and every worker thread see the same pure function.
    """

    seed: int
    kinds: Tuple[str, ...]
    p: float = 1.0
    max_trials: int = 1
    delay: float = 0.05

    def __post_init__(self):
        unknown = [k for k in self.kinds if k not in EVENT_KINDS]
        if unknown:
            raise ValueError(
                f"unknown chaos event kinds {unknown}; expected a subset "
                f"of {EVENT_KINDS}"
            )

    def fires(self, kind: str, trial: int, *coords) -> bool:
        """Does ``kind`` fire at this site?  Pure function of the inputs.

        ``trial`` is the boundedness gate (round / attempt number);
        ``coords`` the remaining stable site coordinates.
        """
        if kind not in self.kinds or trial >= self.max_trials:
            return False
        seq = np.random.SeedSequence(
            self.seed,
            spawn_key=(EVENT_KINDS.index(kind), event_index(trial, *coords)),
        )
        draw = float(np.random.Generator(np.random.PCG64(seq)).random())
        return draw < self.p

    # -- decision sites ------------------------------------------------
    def worker_event(
        self, worker: int, round_no: int, units_done: int
    ) -> Optional[str]:
        """Worker fate before its next unit: ``kill``, ``hang``, or None.

        Consulted by every worker thread before each shard unit; the
        trial coordinate is the round number, so a re-sharded round past
        ``max_trials`` is guaranteed chaos-free and the sweep drains.
        When several kinds fire at one site the first in
        :data:`EVENT_KINDS` order wins, keeping composed schedules
        deterministic.
        """
        for kind in _WORKER_KINDS:
            if self.fires(kind, round_no, "worker", worker, units_done):
                return kind
        return None

    def frame_event(
        self, attempt: int, method: str, scenario: int
    ) -> Optional[str]:
        """Fate of one reply frame: a ``frame_*`` kind or None.

        Consulted at the daemon's single send site per partial frame;
        the trial coordinate is the client's retry attempt, so a retried
        request past ``max_trials`` sees clean frames and converges.
        """
        for kind in _FRAME_KINDS:
            if self.fires(kind, attempt, "frame", method, scenario):
                return kind
        return None
