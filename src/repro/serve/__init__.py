"""Long-lived campaign service: daemon, sharding scheduler, and client.

The service keeps the expensive per-process state — trained models and
their frozen deployment quantization caches — warm across requests,
shards each sweep's ``(task, fault-kind)`` groups across N workers, and
serves every already-computed cell from the content-addressed result
store (:mod:`repro.eval.cache`) so overlapping robustness grids never
recompute a cell.  Results are bit-identical to the serial engine in
every configuration.

Run a daemon with ``python -m repro.serve --workers 2`` and talk to it
with :class:`~repro.serve.client.ServiceClient` or the CLI's
``--connect`` flag; ``--serve N`` spins up an in-process service for
one invocation.
"""

from .chaos import ChaosSchedule, LegacyKill
from .client import (
    IncompleteSweepError,
    ServiceClient,
    ServiceUnavailable,
    service_sweep,
)
from .daemon import CampaignService
from .protocol import ChecksumError, ConnectionClosed, ProtocolError
from .shard import ShardUnit, assign_units, revive_workers, shard_units

__all__ = [
    "CampaignService",
    "ChaosSchedule",
    "ChecksumError",
    "ConnectionClosed",
    "IncompleteSweepError",
    "LegacyKill",
    "ProtocolError",
    "ServiceClient",
    "ServiceUnavailable",
    "ShardUnit",
    "assign_units",
    "revive_workers",
    "service_sweep",
    "shard_units",
]
