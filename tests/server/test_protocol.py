"""Wire protocol: frame round-trips, corruption, torn frames, caps."""

import socket
import threading

import pytest

from repro.server import protocol as proto


class TestFrameRoundTrip:
    def test_control_frame_roundtrip(self):
        frame = proto.control_frame(proto.HELLO, job="j", rank=3)
        kind, length = proto.frame_lengths(frame[: proto.HEADER_SIZE])
        assert kind == proto.HELLO
        payload = frame[proto.HEADER_SIZE : proto.HEADER_SIZE + length]
        crc = int.from_bytes(frame[-proto.CRC_SIZE :], "little")
        proto.check_frame(kind, length, payload, crc)  # no raise
        assert proto.decode_control(payload) == {"job": "j", "rank": 3}

    def test_batch_frame_roundtrip(self):
        blob = b"\x00\x01payload"
        frame = proto.batch_frame(7, blob)
        kind, length = proto.frame_lengths(frame[: proto.HEADER_SIZE])
        assert kind == proto.BATCH
        payload = frame[proto.HEADER_SIZE : proto.HEADER_SIZE + length]
        assert proto.decode_batch(payload) == (7, blob)

    def test_empty_payload_frame(self):
        frame = proto.encode_frame(proto.HEARTBEAT)
        kind, length = proto.frame_lengths(frame[: proto.HEADER_SIZE])
        assert (kind, length) == (proto.HEARTBEAT, 0)


class TestCorruption:
    def test_crc_mismatch_raises(self):
        frame = bytearray(proto.control_frame(proto.HELLO, job="j"))
        frame[proto.HEADER_SIZE] ^= 0xFF  # flip a payload byte
        kind, length = proto.frame_lengths(bytes(frame[: proto.HEADER_SIZE]))
        payload = bytes(frame[proto.HEADER_SIZE : proto.HEADER_SIZE + length])
        crc = int.from_bytes(frame[-proto.CRC_SIZE :], "little")
        with pytest.raises(proto.ProtocolError, match="checksum"):
            proto.check_frame(kind, length, payload, crc)

    def test_oversized_length_rejected_before_allocation(self):
        import struct

        header = struct.pack("<BI", proto.BATCH, proto.MAX_FRAME_BYTES + 1)
        with pytest.raises(proto.ProtocolError, match="cap"):
            proto.frame_lengths(header)

    def test_bad_control_payloads(self):
        with pytest.raises(proto.ProtocolError):
            proto.decode_control(b"\xff\xfe not json")
        with pytest.raises(proto.ProtocolError):
            proto.decode_control(b"[1, 2]")  # not an object

    @pytest.mark.parametrize("payload, error", [
        (b'{"a": ' + b"1" * 5000 + b"}", "digits"),
        (b"[" * 200_000, "recursion"),
    ], ids=["long-int", "deep-nesting"])
    def test_json_past_the_parser_limits(self, payload, error):
        # An int past the digit limit raised ValueError and deep nesting
        # RecursionError; both escaped the decoder.
        with pytest.raises(proto.ProtocolError, match=error):
            proto.decode_control(payload)

    def test_short_batch_payload(self):
        with pytest.raises(proto.ProtocolError):
            proto.decode_batch(b"\x00\x01")  # shorter than the seq u64


class TestSocketReader:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_read_frame_over_socket(self):
        a, b = self._pair()
        try:
            t = threading.Thread(
                target=b.sendall,
                args=(proto.control_frame(proto.BATCH_ACK, seq=9),),
            )
            t.start()
            kind, payload = proto.read_frame(a)
            t.join()
            assert kind == proto.BATCH_ACK
            assert proto.decode_control(payload) == {"seq": 9}
        finally:
            a.close()
            b.close()

    def test_torn_frame_is_connection_error(self):
        # Half a frame then a hangup: indistinguishable from a dead
        # peer, so it must surface as ConnectionError (the client's
        # retry path), never hang or return garbage.
        a, b = self._pair()
        try:
            frame = proto.batch_frame(1, b"x" * 64)
            b.sendall(frame[: len(frame) // 2])
            b.close()
            with pytest.raises(ConnectionError):
                proto.read_frame(a)
        finally:
            a.close()

    def test_eof_before_any_byte_is_connection_error(self):
        a, b = self._pair()
        try:
            b.close()
            with pytest.raises(ConnectionError):
                proto.read_frame(a)
        finally:
            a.close()
