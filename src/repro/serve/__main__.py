"""Run a campaign service daemon: ``python -m repro.serve``.

The daemon binds the loopback interface (``--port 0`` picks a free
port, printed on startup so wrappers can parse it), keeps models and
their deployment caches warm across requests, and serves sweeps until a
client sends ``shutdown`` or the process receives SIGINT.  A ``--host``
other than IPv4 loopback or ``localhost`` is refused: the daemon
unpickles every frame it receives.  ``--workers N`` still parses and is
ignored: each sweep runs on its own connection thread.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .daemon import CampaignService


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-lived campaign service.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="IPv4 loopback address to bind (default "
                             "127.0.0.1; other addresses are refused)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = pick a free one, printed below)")
    parser.add_argument("--workers", type=int, default=None,
                        help="ignored: each sweep runs on its connection "
                             "thread (accepted so older launch scripts "
                             "still start the daemon)")
    parser.add_argument("--verbose", action="store_true",
                        help="log requests and connection errors to stderr")
    args = parser.parse_args(argv)
    try:
        service = CampaignService(
            host=args.host, port=args.port, verbose=args.verbose
        )
    except ValueError as exc:  # a --host that is not IPv4 loopback
        parser.error(str(exc))
    service.start()
    print(f"repro campaign service listening on "
          f"{service.host}:{service.port}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.stop()


if __name__ == "__main__":
    main()
