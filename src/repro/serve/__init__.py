"""Long-lived campaign service: daemon, sharding scheduler, and client.

The service keeps the expensive per-process state — trained models and
their frozen deployment quantization caches — warm across requests,
shards each method's ``(task, fault-kind)`` scenario groups across N
workers (one method's rounds at a time), and
serves every already-computed cell from the content-addressed result
store (:mod:`repro.eval.cache`) so overlapping robustness grids never
recompute a cell.  A sweep takes the same scenario path as the
in-process driver (:mod:`repro.eval.campaigns`): the same settings
resolver and store lookup, the same cell grid and ``n_runs`` fill
(:mod:`repro.faults.campaign`) and the same curve assembly, so results
are bit-identical to the local path in every configuration.  A request
with ``use_store=False`` (the CLI's ``--no-cache`` with ``--serve`` or
``--connect``) bypasses the store: it neither reads nor writes it,
where the local ``--no-cache`` skips the reads but still writes.

Run a daemon with ``python -m repro.serve --workers 2`` and talk to it
with :class:`~repro.serve.client.ServiceClient` or the CLI's
``--connect`` flag; ``--serve N`` spins up an in-process service for
one invocation.
"""

from .chaos import ChaosSchedule
from .client import IncompleteSweepError, ServiceClient, ServiceUnavailable
from .daemon import CampaignService
from .protocol import ChecksumError, ConnectionClosed, ProtocolError
from .shard import ShardUnit, assign_units, revive_workers, shard_units

__all__ = [
    "CampaignService",
    "ChaosSchedule",
    "ChecksumError",
    "ConnectionClosed",
    "IncompleteSweepError",
    "ProtocolError",
    "ServiceClient",
    "ServiceUnavailable",
    "ShardUnit",
    "assign_units",
    "revive_workers",
    "shard_units",
]
