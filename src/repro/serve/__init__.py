"""Long-lived campaign service: daemon and client.

The daemon keeps trained models and their frozen deployment
quantization caches warm across requests, runs each sweep request on
its connection thread through the steps of the in-process driver
(:mod:`repro.eval.campaigns`): the same settings resolver and store
lookup, the same cell grid and ``n_runs`` fill
(:mod:`repro.faults.campaign`) and the same curve assembly, so results
are bit-identical to the local path.  Every already-computed cell is
served from the content-addressed result store
(:mod:`repro.eval.cache`).  A request with ``use_store=False`` (the
CLI's ``--no-cache`` with ``--connect``) bypasses the store: it neither
reads nor writes it, where the local ``--no-cache`` skips the reads but
still writes.

Run a daemon with ``python -m repro.serve`` and talk to it with
:class:`~repro.serve.client.ServiceClient` or the CLI's ``--connect``
flag.
"""

from .client import IncompleteSweepError, ServiceClient, ServiceUnavailable
from .daemon import CampaignService
from .protocol import ChecksumError, ConnectionClosed, ProtocolError

__all__ = [
    "CampaignService",
    "ChecksumError",
    "ConnectionClosed",
    "IncompleteSweepError",
    "ProtocolError",
    "ServiceClient",
    "ServiceUnavailable",
]
