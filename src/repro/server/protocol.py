"""Wire protocol of the ingest server: CRC-framed, length-prefixed.

Every message on the socket is one frame::

    kind u8 | length u32 | payload[length] | crc32 u32

with the CRC taken over ``kind | length | payload`` — the same
"checksum everything, fail loudly" discipline as the trace
container (docs/INTERNALS.md §7).  A torn frame (connection cut
mid-payload) is indistinguishable from a dead peer and surfaces as
:class:`ConnectionError`; a frame whose CRC does not match raises
:class:`ProtocolError` — the server answers with an ERROR frame and
drops the connection, and the client reconnects and resumes from the
server's acked sequence number.

Control frames carry UTF-8 JSON payloads (HELLO, HELLO_ACK, EOS_ACK,
STATUS, ERROR); the hot BATCH frame is binary: a ``u64``
sequence number followed by a CYPK packed-stream blob
(:mod:`repro.core.packed`).  Sequence numbers start at 1 and are the
exactly-once contract: the server acks each batch it ingested, dedups
anything at or below its acked counter, and rejects gaps — a client
that reconnects asks HELLO, learns the acked counter, and re-sends
from there.  Kinds 131 and 132 (throttle and resume) are reserved:
older servers sent them for backpressure, this one never does — it
holds no batch in memory, and TCP flow control slows a fast client.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

PROTO_VERSION = 1

# Client -> server.
HELLO = 1
BATCH = 2
EOS = 3
HEARTBEAT = 4
STATUS = 5

# Server -> client.
HELLO_ACK = 129
BATCH_ACK = 130
THROTTLE = 131
RESUME = 132
EOS_ACK = 133
STATUS_ACK = 134
ERROR = 135

KIND_NAMES = {
    HELLO: "HELLO", BATCH: "BATCH", EOS: "EOS", HEARTBEAT: "HEARTBEAT",
    STATUS: "STATUS", HELLO_ACK: "HELLO_ACK", BATCH_ACK: "BATCH_ACK",
    THROTTLE: "THROTTLE", RESUME: "RESUME", EOS_ACK: "EOS_ACK",
    STATUS_ACK: "STATUS_ACK", ERROR: "ERROR",
}

_HDR = struct.Struct("<BI")
_CRC = struct.Struct("<I")
_SEQ = struct.Struct("<Q")

#: Hard ceiling on a single frame's payload — a corrupted length field
#: must never make a reader allocate gigabytes.
MAX_FRAME_BYTES = 64 << 20


class ProtocolError(Exception):
    """Malformed frame: bad CRC, oversized length, or unexpected kind."""


def encode_frame(kind: int, payload: bytes = b"") -> bytes:
    """One wire frame for ``payload`` (CRC over header + payload)."""
    head = _HDR.pack(kind, len(payload))
    return head + payload + _CRC.pack(zlib.crc32(head + payload) & 0xFFFFFFFF)


def control_frame(kind: int, **fields) -> bytes:
    """A JSON control frame."""
    return encode_frame(kind, json.dumps(fields, sort_keys=True).encode())


def batch_frame(seq: int, blob: bytes) -> bytes:
    """The hot frame: ``seq`` + CYPK blob."""
    return encode_frame(BATCH, _SEQ.pack(seq) + blob)


def decode_control(payload: bytes) -> dict:
    try:
        fields = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON, or an int past the digit
        # limit; RecursionError: nesting past the parser's depth.
        raise ProtocolError(f"bad control payload: {exc}") from exc
    if not isinstance(fields, dict):
        raise ProtocolError("control payload is not a JSON object")
    return fields


def decode_batch(payload: bytes) -> tuple[int, bytes]:
    if len(payload) < _SEQ.size:
        raise ProtocolError("batch frame shorter than its sequence number")
    return _SEQ.unpack_from(payload)[0], payload[_SEQ.size:]


def check_frame(kind: int, length: int, payload: bytes, crc: int) -> None:
    """Validate a frame read piecewise off a stream."""
    head = _HDR.pack(kind, length)
    if zlib.crc32(head + payload) & 0xFFFFFFFF != crc:
        raise ProtocolError(
            f"frame checksum mismatch on {KIND_NAMES.get(kind, kind)}"
        )


def frame_lengths(header: bytes) -> tuple[int, int]:
    """Parse a frame header; returns ``(kind, payload_length)``."""
    kind, length = _HDR.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the protocol cap")
    return kind, length


HEADER_SIZE = _HDR.size
CRC_SIZE = _CRC.size


# ---------------------------------------------------------------------------
# Synchronous (socket) reader — the client side; the server uses asyncio
# stream primitives with the same check_frame/decode helpers.


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one validated frame; raises :class:`ConnectionError` on EOF
    or a torn frame, :class:`ProtocolError` on corruption."""
    header = _recv_exact(sock, HEADER_SIZE)
    kind, length = frame_lengths(header)
    payload = _recv_exact(sock, length)
    (crc,) = _CRC.unpack(_recv_exact(sock, CRC_SIZE))
    check_frame(kind, length, payload, crc)
    return kind, payload


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError(
                f"connection closed mid-frame ({len(buf)}/{n} bytes)"
            )
        buf += chunk
    return bytes(buf)
