"""Packed binary encoding of captured item streams.

A captured stream (:class:`repro.mpisim.pmpi.StreamCaptureSink`) is a
per-rank list of opcode tuples.  This module defines the fixed-width
columnar encoding of such a stream — the ``repro serve`` wire format for
event batches:

* **codes** — one byte per captured item (the opcode), in stream order;
* **markers** — one ``<qq`` record per structural item (loop/branch/
  recurse markers and ``OP_FINALIZE``): ``(ast_id, path_or_0)``;
* **events** — one 139-byte record per ``OP_EVENT`` (see
  ``EVENT_STRUCT``): interned-op index, the record-key parameters,
  timing, then rank/seq/request fields; variable-length tuples
  (``reqs``, ``req_gids``) are stored as ``(offset, length)`` slices
  into the arena;
* **req-completes** — one ``<qqqd`` record per ``OP_REQ_COMPLETE``:
  ``(rid, source, nbytes, when)``;
* **arena** — a flat ``int64`` array holding every variable-length
  tuple's elements.

The encoding has one consumer path: :func:`decode_stream` back to the
tuple list, then :meth:`~repro.core.intra.IntraProcessCompressor.
ingest_stream`.  Decoding never scans byte-by-byte: each column is a
homogeneous struct array unpacked with ``struct.iter_unpack`` (C speed),
then woven back into stream order by walking the codes column.  Integer
fields are ``int64`` — the codec's documented domain; ``struct`` raises
on anything wider, it is never silently truncated.

The blob layout is::

    magic  b"CYPK" | version u8
    nops u16 | nops × (len u16, utf-8 op name)
    counts <QQQQQ: nitems, nevents, nmarkers, nreqc, arena_len
    codes[nitems] | markers[nmarkers] | events[nevents]
    reqc[nreqc]   | arena[arena_len × int64]

Every structural opcode (including ``OP_FINALIZE``) consumes exactly
one marker record, so the weave needs no per-opcode special cases.
"""

from __future__ import annotations

import struct
from array import array

from repro.mpisim.events import CommEvent
from repro.mpisim.pmpi import (
    OP_BRANCH_ENTER,
    OP_BRANCH_EXIT,
    OP_EVENT,
    OP_FINALIZE,
    OP_LOOP_ITER,
    OP_LOOP_POP,
    OP_LOOP_PUSH,
    OP_RECURSE_ENTER,
    OP_RECURSE_EXIT,
    OP_REQ_COMPLETE,
)

MAGIC = b"CYPK"
VERSION = 1

#: Event record, field order by unpacked index:
#: 0 op_idx | 1 peer, 2 nbytes, 3 tag, 4 peer2, 5 tag2, 6 nbytes2,
#: 7 comm, 8 root, 9 result_comm, 10 wildcard, 11 reqs_len |
#: 12 time_start, 13 duration | 14 rank, 15 seq, 16 req,
#: 17 reqs_off, 18 gids_off, 19 gids_len.
EVENT_STRUCT = struct.Struct("<H" "qqqqqqqqqBI" "dd" "qqq" "QQI")
MARKER_STRUCT = struct.Struct("<qq")
REQC_STRUCT = struct.Struct("<qqqd")
_COUNTS = struct.Struct("<QQQQQ")
_U16 = struct.Struct("<H")

#: Codes that carry a marker record (everything but events/req-completes).
_MARKER_CODES = frozenset(
    (
        OP_LOOP_PUSH,
        OP_LOOP_ITER,
        OP_LOOP_POP,
        OP_BRANCH_ENTER,
        OP_BRANCH_EXIT,
        OP_RECURSE_ENTER,
        OP_RECURSE_EXIT,
        OP_FINALIZE,
    )
)

class PackedStreamError(ValueError):
    """Malformed packed blob (bad magic/version, a cut or undecodable
    header, a truncated section, an op index past the op table): the one
    exception a decode raises for a hostile blob."""


#: Exceptions an encode of a hostile (e.g. fault-injected) stream can
#: raise: unknown opcodes, non-integer fields, values outside int64.
#: A decode raises only :class:`PackedStreamError`.
ENCODE_ERRORS = (
    PackedStreamError,
    struct.error,
    OverflowError,
    TypeError,
    AttributeError,
    IndexError,
)


class PackedStream:
    """Append-only packed encoder for one rank's item stream.

    One ``append_*`` per kind of opcode tuple; ``to_bytes()`` emits
    the self-contained blob described in the module docstring.
    """

    __slots__ = (
        "codes",
        "markers",
        "events",
        "reqc",
        "arena",
        "ops",
        "_op_index",
        "nevents",
    )

    def __init__(self) -> None:
        self.codes = bytearray()
        self.markers = bytearray()
        self.events = bytearray()
        self.reqc = bytearray()
        self.arena = array("q")
        self.ops: list[str] = []
        self._op_index: dict[str, int] = {}
        self.nevents = 0

    def __len__(self) -> int:
        return len(self.codes)

    # -- structural markers ---------------------------------------------

    def append_marker(self, code: int, ast_id: int, path: int = 0) -> None:
        self.codes.append(code)
        self.markers += MARKER_STRUCT.pack(ast_id, path)

    def append_finalize(self) -> None:
        self.append_marker(OP_FINALIZE, 0, 0)

    # -- communication events -------------------------------------------

    def append_event(self, ev: CommEvent) -> None:
        op_idx = self._op_index.get(ev.op)
        if op_idx is None:
            op_idx = self._op_index[ev.op] = len(self.ops)
            self.ops.append(ev.op)
        arena = self.arena
        reqs = ev.reqs
        if reqs:
            reqs_off = len(arena)
            arena.extend(reqs)
            reqs_len = len(reqs)
        else:
            reqs_off = reqs_len = 0
        gids = ev.req_gids
        if gids:
            gids_off = len(arena)
            arena.extend(gids)
            gids_len = len(gids)
        else:
            gids_off = gids_len = 0
        self.codes.append(OP_EVENT)
        self.events += EVENT_STRUCT.pack(
            op_idx,
            ev.peer, ev.nbytes, ev.tag, ev.peer2, ev.tag2, ev.nbytes2,
            ev.comm, ev.root, ev.result_comm,
            1 if ev.wildcard else 0, reqs_len,
            ev.time_start, ev.duration,
            ev.rank, ev.seq, ev.req,
            reqs_off, gids_off, gids_len,
        )
        self.nevents += 1

    def append_request_complete(
        self, rid: int, source: int, nbytes: int, when: float
    ) -> None:
        self.codes.append(OP_REQ_COMPLETE)
        self.reqc += REQC_STRUCT.pack(rid, source, nbytes, when)

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        head = bytearray()
        head += MAGIC
        head.append(VERSION)
        head += _U16.pack(len(self.ops))
        for op in self.ops:
            raw = op.encode("utf-8")
            head += _U16.pack(len(raw))
            head += raw
        head += _COUNTS.pack(
            len(self.codes),
            self.nevents,
            len(self.markers) // MARKER_STRUCT.size,
            len(self.reqc) // REQC_STRUCT.size,
            len(self.arena),
        )
        return bytes(
            head + self.codes + self.markers + self.events + self.reqc
            + self.arena.tobytes()
        )


def is_packed(source) -> bool:
    """True when ``source`` is a :class:`PackedStream` or a packed blob."""
    if isinstance(source, PackedStream):
        return True
    if isinstance(source, (bytes, bytearray, memoryview)):
        return bytes(source[:4]) == MAGIC
    return False


def _parse_header(buf: memoryview) -> tuple[list[str], tuple, int]:
    """``(ops, counts, offset of the codes column)`` of a blob, after
    checking magic, version and that every declared column is there."""
    if bytes(buf[:4]) != MAGIC:
        raise PackedStreamError("bad magic: not a packed stream")
    try:
        if buf[4] != VERSION:
            raise PackedStreamError(
                f"unsupported packed-stream version {buf[4]}")
        pos = 5
        (nops,) = _U16.unpack_from(buf, pos)
        pos += 2
        ops = []
        for _ in range(nops):
            (nlen,) = _U16.unpack_from(buf, pos)
            pos += 2
            ops.append(bytes(buf[pos:pos + nlen]).decode("utf-8"))
            pos += nlen
        counts = _COUNTS.unpack_from(buf, pos)
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        raise PackedStreamError(f"malformed packed header: {exc}") from None
    nitems, nevents, nmarkers, nreqc, arena_len = counts
    pos += _COUNTS.size
    need = (
        pos + nitems + nmarkers * MARKER_STRUCT.size
        + nevents * EVENT_STRUCT.size + nreqc * REQC_STRUCT.size
        + arena_len * 8
    )
    if len(buf) < need:
        raise PackedStreamError(
            f"truncated packed stream: need {need} bytes, have {len(buf)}"
        )
    return ops, counts, pos


def encode_stream(stream) -> PackedStream:
    """Pack one rank's opcode-tuple stream (capture-list form)."""
    packed = PackedStream()
    append_marker = packed.append_marker
    append_event = packed.append_event
    for item in stream:
        code = item[0]
        if code == OP_EVENT:
            append_event(item[1])
        elif code == OP_BRANCH_ENTER:
            append_marker(code, item[1], item[2])
        elif code == OP_REQ_COMPLETE:
            packed.append_request_complete(item[1], item[2], item[3], item[4])
        elif code == OP_FINALIZE:
            packed.append_finalize()
        elif code in _MARKER_CODES:
            append_marker(code, item[1])
        else:
            raise PackedStreamError(f"unknown stream opcode {code!r}")
    return packed


def decode_stream(source) -> list[tuple]:
    """Decode a packed stream (a blob or a :class:`PackedStream`) back
    to the capture-list tuple form.

    The inverse of :func:`encode_stream`, and the only way a packed
    stream reaches the compressor: the server daemon, recovery replay
    and :func:`~repro.core.intra.compress_streams` all decode a blob
    once and walk the list."""
    if isinstance(source, PackedStream):
        source = source.to_bytes()
    buf = memoryview(source)
    ops, counts, pos = _parse_header(buf)
    nitems, nevents, nmarkers, nreqc, arena_len = counts
    codes = bytes(buf[pos:pos + nitems])
    if (
        codes.count(OP_EVENT) != nevents
        or codes.count(OP_REQ_COMPLETE) != nreqc
        or nitems - nevents - nreqc != nmarkers
    ):
        raise PackedStreamError(
            "packed stream's codes disagree with its column counts"
        )
    pos += nitems
    end = pos + nmarkers * MARKER_STRUCT.size
    markers = MARKER_STRUCT.iter_unpack(buf[pos:end])
    pos, end = end, end + nevents * EVENT_STRUCT.size
    events = EVENT_STRUCT.iter_unpack(buf[pos:end])
    pos, end = end, end + nreqc * REQC_STRUCT.size
    reqc = REQC_STRUCT.iter_unpack(buf[pos:end])
    arena = array("q")
    arena.frombytes(buf[end:end + arena_len * 8])
    out: list[tuple] = []
    append = out.append
    try:
        for code in codes:
            if code == OP_EVENT:
                f = next(events)
                reqs_len = f[11]
                gids_len = f[19]
                append((OP_EVENT, CommEvent(
                    ops[f[0]], f[14], f[15], f[1], f[4], f[3], f[5], f[2],
                    f[6], f[7], f[8], f[16],
                    tuple(arena[f[17]:f[17] + reqs_len]) if reqs_len else (),
                    bool(f[10]), f[9], f[12], f[13],
                    tuple(arena[f[18]:f[18] + gids_len]) if gids_len else (),
                )))
            elif code == OP_REQ_COMPLETE:
                append((OP_REQ_COMPLETE,) + next(reqc))
            elif code == OP_FINALIZE:
                next(markers)
                append((OP_FINALIZE,))
            elif code == OP_BRANCH_ENTER:
                append((code,) + next(markers))
            else:
                append((code, next(markers)[0]))
    except IndexError:  # an op index past the op table
        raise PackedStreamError(f"event op {f[0]} past the op table") from None
    return out


def event_count(source) -> int:
    """Number of communication events in a packed stream, without a
    full decode (reads the header / encoder counter only)."""
    if isinstance(source, PackedStream):
        return source.nevents
    return _parse_header(memoryview(source))[1][1]
