"""Framing tests for the campaign-service wire protocol."""

import pickle
import socket
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ChecksumError,
    ConnectionClosed,
    ProtocolError,
    recv_message,
    send_message,
)

_HEADER = struct.Struct(">QI")


def _frame(payload: bytes, checksum=None) -> bytes:
    """Hand-craft one wire frame (checksum defaults to the correct CRC)."""
    if checksum is None:
        checksum = zlib.crc32(payload)
    return _HEADER.pack(len(payload), checksum) + payload


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        send_message(a, {"op": "ping", "n": 3})
        assert recv_message(b) == {"op": "ping", "n": 3}

    def test_multiple_frames_stay_separate(self, pair):
        a, b = pair
        for i in range(5):
            send_message(a, {"seq": i})
        assert [recv_message(b)["seq"] for _ in range(5)] == list(range(5))

    def test_numpy_payload_survives_bit_exact(self, pair):
        a, b = pair
        values = np.random.default_rng(0).normal(size=(4, 7))
        send_message(a, {"values": values})
        np.testing.assert_array_equal(recv_message(b)["values"], values)

    def test_large_frame_crosses_kernel_buffer(self, pair):
        """A multi-megabyte frame exercises the short-read loop."""
        a, b = pair
        values = np.arange(300_000, dtype=np.float64)
        done = {}

        def sender():
            send_message(a, {"values": values})
            done["sent"] = True

        thread = threading.Thread(target=sender)
        thread.start()
        received = recv_message(b)
        thread.join()
        assert done["sent"]
        np.testing.assert_array_equal(received["values"], values)


class TestErrors:
    def test_eof_before_header_is_orderly_close(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_message(b)

    def test_eof_mid_frame_raises_plain_connection_error(self, pair):
        a, b = pair
        a.sendall(_HEADER.pack(100, 0) + b"only a few bytes")
        a.close()
        with pytest.raises(ConnectionError) as excinfo:
            recv_message(b)
        assert not isinstance(excinfo.value, ConnectionClosed)

    def test_eof_mid_header_raises_plain_connection_error(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00\x00")  # a torn header is mid-frame, not orderly
        a.close()
        with pytest.raises(ConnectionError) as excinfo:
            recv_message(b)
        assert not isinstance(excinfo.value, ConnectionClosed)

    def test_oversize_header_rejected_before_allocation(self, pair):
        a, b = pair
        a.sendall(_HEADER.pack(MAX_MESSAGE_BYTES + 1, 0))
        with pytest.raises(ProtocolError):
            recv_message(b)

    def test_oversize_send_refused(self, pair, monkeypatch):
        a, _ = pair
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 64)
        with pytest.raises(ProtocolError):
            send_message(a, {"blob": b"x" * 1024})

    def test_garbage_payload_is_protocol_error(self, pair):
        a, b = pair
        a.sendall(_frame(b"\x00not pickle"))
        with pytest.raises(ProtocolError):
            recv_message(b)


class TestChecksum:
    def test_checksum_mismatch_raises_before_unpickle(self, pair):
        a, b = pair
        payload = pickle.dumps({"op": "ping"})
        a.sendall(_frame(payload, checksum=zlib.crc32(payload) ^ 0xDEADBEEF))
        with pytest.raises(ChecksumError):
            recv_message(b)

    def test_checksum_error_is_retryable_protocol_error(self):
        assert issubclass(ChecksumError, ProtocolError)
        assert issubclass(ProtocolError, ConnectionError)

    def test_flipped_payload_byte_fails_crc_not_unpickle(self, pair):
        a, b = pair
        payload = bytearray(pickle.dumps({"values": list(range(50))}))
        payload[len(payload) // 2] ^= 0xFF
        a.sendall(
            _HEADER.pack(len(payload), zlib.crc32(b"")) + bytes(payload)
        )
        with pytest.raises(ChecksumError):
            recv_message(b)

    def test_corrupt_shim_triggers_checksum_error(self, pair):
        """A payload damaged after its CRC was taken — as in flight —
        fails the receiver's integrity check."""
        a, b = pair
        payload = pickle.dumps({"op": "ping", "n": 3})
        damaged = bytearray(payload)
        damaged[len(damaged) // 2] ^= 0xFF
        a.sendall(_frame(bytes(damaged), checksum=zlib.crc32(payload)))
        with pytest.raises(ChecksumError):
            recv_message(b)

    def test_clean_frame_after_corrupt_one_still_parses(self, pair):
        a, b = pair
        payload = pickle.dumps({"seq": 0})
        a.sendall(_frame(payload, checksum=zlib.crc32(payload) ^ 1))
        send_message(a, {"seq": 1})
        with pytest.raises(ChecksumError):
            recv_message(b)
        assert recv_message(b) == {"seq": 1}
