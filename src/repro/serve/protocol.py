"""Length-prefixed, checksummed message framing for the campaign service.

Messages are pickled Python dicts preceded by a 12-byte header: an
8-byte big-endian payload length and a 4-byte CRC-32 of the payload.
The length prefix makes framing self-describing over any stream
transport (TCP socket, ``socket.socketpair`` pipe), so a reader always
knows exactly how many payload bytes to consume and partial reads from
the kernel never split a message.  A hard size cap rejects absurd
frames before allocating for them — a truncated or garbage prefix
surfaces as a clean :class:`ProtocolError` instead of an OOM.

The CRC classifies corruption instead of letting it poison unpickle: a
frame whose payload does not match its checksum raises
:class:`ChecksumError` *before* ``pickle.loads`` runs, and the error is
**retryable** — the bytes were damaged in flight, so the same request
can simply be sent again.  EOF cleanly between frames raises :class:`ConnectionClosed`
(an orderly peer close, not an error); EOF *inside* a frame stays a
plain :class:`ConnectionError`.

The service speaks a small request/response vocabulary of dicts with an
``op`` field (``ping``, ``stats``, ``sweep``, ``shutdown``); sweep
responses stream as a sequence of ``{"kind": "partial", ...}`` frames
terminated by one ``{"kind": "done", ...}`` (or ``{"kind": "error"}``).
Pickle is safe here because both ends are the same trusted codebase on
the loopback interface — the daemon binds ``127.0.0.1`` only (the CRC
is an integrity check against accidental corruption, not a security
boundary).
"""

from __future__ import annotations

import pickle
import socket
import struct
import zlib
from typing import Any

from ..profiling import stage

_HEADER = struct.Struct(">QI")

#: Refuse frames above this size (64 MiB) — far beyond any sweep payload.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ProtocolError(ConnectionError):
    """A malformed frame (oversized, truncated, or unpicklable)."""


class ChecksumError(ProtocolError):
    """A frame whose payload fails its CRC-32 — corrupted in flight.

    Retryable by construction: the sender framed a valid message, the
    bytes were damaged between the endpoints, so re-sending the same
    request is safe and is exactly what the client's retry loop does.
    """


class ConnectionClosed(ConnectionError):
    """EOF cleanly between frames — an orderly peer close, not a fault."""


def send_message(sock: socket.socket, message: Any) -> None:
    """Frame and send one message (length + CRC-32 prefix, pickle payload)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"refusing to send {len(payload)} byte frame "
            f"(cap {MAX_MESSAGE_BYTES})"
        )
    with stage("transport"):
        sock.sendall(_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)


def recv_message(sock: socket.socket) -> Any:
    """Receive one framed message.

    Raises :class:`ConnectionClosed` on EOF at a frame boundary, plain
    ``ConnectionError`` on EOF mid-frame, :class:`ChecksumError` when
    the payload fails its CRC, and :class:`ProtocolError` for oversized
    or unpicklable frames.
    """
    with stage("transport"):
        header = _recv_exact(sock, _HEADER.size, at_boundary=True)
        length, checksum = _HEADER.unpack(header)
        if length > MAX_MESSAGE_BYTES:
            raise ProtocolError(
                f"refusing {length} byte frame (cap {MAX_MESSAGE_BYTES})"
            )
        payload = _recv_exact(sock, length)
    actual = zlib.crc32(payload)
    if actual != checksum:
        raise ChecksumError(
            f"frame checksum mismatch (expected {checksum:#010x}, "
            f"got {actual:#010x} over {length} bytes)"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickle failure is protocol-fatal
        raise ProtocolError(f"unpicklable frame: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int, at_boundary: bool = False) -> bytes:
    """Read exactly ``n`` bytes, looping over short kernel reads.

    ``at_boundary`` marks the read that starts a frame: EOF before any
    byte arrives there is an orderly close (:class:`ConnectionClosed`),
    while EOF anywhere else means the peer died mid-frame.
    """
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_boundary and remaining == n:
                raise ConnectionClosed("connection closed between frames")
            raise ConnectionError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
