"""Packed binary encoding of captured callback streams.

A captured stream (:class:`repro.mpisim.pmpi.StreamCaptureSink`) is a
per-rank list of opcode tuples.  This module defines the fixed-width
columnar encoding of such a stream — the ``repro serve`` wire format for
event batches and the input of
:meth:`~repro.core.intra.IntraProcessCompressor.ingest_runs`:

* **codes** — one byte per captured item (the opcode), in stream order;
* **markers** — one ``<qq`` record per structural item (loop/branch/
  recurse markers and ``OP_FINALIZE``): ``(ast_id, path_or_0)``;
* **events** — one 139-byte record per ``OP_EVENT`` (see
  ``EVENT_STRUCT``): interned-op index, then a contiguous *param
  window* (the fields the compressor's key-interning cache compares,
  so a cache-hit test is one raw-bytes compare), then timing, then the
  cold fields only a cache miss decodes; variable-length tuples
  (``reqs``, ``req_gids``) are stored as ``(offset, length)`` slices
  into the arena;
* **req-completes** — one ``<qqqd`` record per ``OP_REQ_COMPLETE``:
  ``(rid, source, nbytes, when)``;
* **arena** — a flat ``int64`` array holding every variable-length
  tuple's elements.

Decoding never scans byte-by-byte: each column is a homogeneous struct
array unpacked with ``struct.iter_unpack`` (C speed), then woven back
into stream order by walking the codes column.  Integer fields are
``int64`` — the codec's documented domain; ``struct`` raises on
anything wider, it is never silently truncated.

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

from repro.mpisim.events import NONBLOCKING_OPS, CommEvent
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

#: Event record: op index, then the **param window** — every field that
#: participates in the compressor's key-interning cache comparison, laid
#: out contiguously so the packed ingest fast path can test cache hits
#: with one raw-bytes compare instead of decoding the record — then
#: timing, then the cold fields only a cache miss needs.  Field order
#: (by unpacked index):
#: 0 op_idx | param window: 1 peer, 2 nbytes, 3 tag, 4 peer2, 5 tag2,
#: 6 nbytes2, 7 comm, 8 root, 9 result_comm, 10 wildcard, 11 reqs_len |
#: 12 time_start, 13 duration | cold: 14 rank, 15 seq, 16 req,
#: 17 reqs_off, 18 gids_off, 19 gids_len.
EVENT_STRUCT = struct.Struct("<H" "qqqqqqqqqBI" "dd" "qqq" "QQI")
#: Byte span of the param window inside an event record.  Equal window
#: bytes mean equal param fields (fixed-width two's-complement int64s,
#: canonical 0/1 wildcard), and ``reqs_len`` inside the window means a
#: cached empty-``reqs`` window can never match an event carrying
#: requests.
EVENT_PARAMS_OFF = 2
EVENT_PARAMS_END = EVENT_PARAMS_OFF + 9 * 8 + 1 + 4
#: ``(time_start, duration)`` doubles, directly after the window.
EVENT_TIMES = struct.Struct("<dd")
EVENT_TIMES_OFF = EVENT_PARAMS_END
#: Byte offsets of the fields a run-eligibility test reads without a
#: full decode: the wildcard flag and ``reqs_len`` inside the window,
#: and ``gids_len`` at the record tail.
EVENT_WILDCARD_OFF = EVENT_PARAMS_OFF + 9 * 8
EVENT_REQSLEN_OFF = EVENT_WILDCARD_OFF + 1
EVENT_GIDSLEN_OFF = EVENT_STRUCT.size - 4
#: One-sweep decoder for the timing columns: skips to the ``<dd`` pair
#: of each record so ``iter_unpack`` walks the whole event section at C
#: speed without touching any other field.
EVENT_TIMES_SWEEP = struct.Struct(
    "<%dxdd%dx" % (EVENT_TIMES_OFF, EVENT_STRUCT.size - EVENT_TIMES_OFF - 16)
)
#: Cold-field offsets the run-collapsed ingest path reads individually:
#: the request handle a nonblocking call registers, and the arena offset
#: of a request-consuming call's ``reqs`` span (its length lives in the
#: param window at ``EVENT_REQSLEN_OFF``).
EVENT_REQ_OFF = EVENT_TIMES_OFF + 16 + 16  # after (start, dur), rank, seq
EVENT_REQS_PTR_OFF = EVENT_REQ_OFF + 8
EVENT_REQ = struct.Struct("<q")
EVENT_REQS_PTR = struct.Struct("<Q")
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

#: Default decode granularity (items per chunk) for bounded-memory
#: ingest of large blobs.
CHUNK_ITEMS = 1 << 16


class PackedStreamError(ValueError):
    """Malformed packed blob (bad magic/version or truncated section)."""


#: Exceptions an encode of a hostile (e.g. fault-injected) stream can
#: raise: unknown opcodes, non-integer fields, values outside int64.
#: The server daemon maps any of these to a protocol error on a batch.
ENCODE_ERRORS = (
    PackedStreamError,
    struct.error,
    OverflowError,
    TypeError,
    AttributeError,
    IndexError,
)


class PackedStream:
    """Append-only packed encoder for one rank's callback stream.

    Mirrors the :class:`TraceSink` callback set; ``to_bytes()`` emits
    the self-contained blob described in the module docstring.  The
    in-memory columns can also be decoded directly (``columns_of``)
    without a serialization round-trip.
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
        "runs",
        "_run_head",
        "_run_open",
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
        #: Run descriptors ``(start_event_index, count)`` for maximal
        #: chains (count ≥ 2) of *consecutive stream items* that are all
        #: events with byte-equal heads (op index + param window) and
        #: run-eligible: no wildcard, no requests, no request GIDs, and
        #: a blocking op.  Any interleaved marker or request-complete
        #: splits the chain, as does any ineligible event.
        self.runs: list[tuple[int, int]] = []
        self._run_head: bytes | None = None
        self._run_open = False

    def __len__(self) -> int:
        return len(self.codes)

    # -- structural markers ---------------------------------------------

    def append_marker(self, code: int, ast_id: int, path: int = 0) -> None:
        self.codes.append(code)
        self.markers += MARKER_STRUCT.pack(ast_id, path)
        self._run_head = None
        self._run_open = False

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
        rec = EVENT_STRUCT.pack(
            op_idx,
            ev.peer, ev.nbytes, ev.tag, ev.peer2, ev.tag2, ev.nbytes2,
            ev.comm, ev.root, ev.result_comm,
            1 if ev.wildcard else 0, reqs_len,
            ev.time_start, ev.duration,
            ev.rank, ev.seq, ev.req,
            reqs_off, gids_off, gids_len,
        )
        self.events += rec
        # Incremental run detection: the head (op index + param window)
        # is compared as raw bytes, exactly the test the ingest cache
        # performs.  Wildcards, requests and nonblocking ops never join
        # runs — each has per-event side effects beyond the stats fold.
        if (
            not reqs_len
            and not gids_len
            and not ev.wildcard
            and ev.op not in NONBLOCKING_OPS
        ):
            head = rec[:EVENT_PARAMS_END]
            if head == self._run_head:
                if self._run_open:
                    start, count = self.runs[-1]
                    self.runs[-1] = (start, count + 1)
                else:
                    self.runs.append((self.nevents - 1, 2))
                    self._run_open = True
            else:
                self._run_head = head
                self._run_open = False
        else:
            self._run_head = None
            self._run_open = False
        self.nevents += 1

    def append_request_complete(
        self, rid: int, source: int, nbytes: int, when: float
    ) -> None:
        self.codes.append(OP_REQ_COMPLETE)
        self.reqc += REQC_STRUCT.pack(rid, source, nbytes, when)
        self._run_head = None
        self._run_open = False

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


class Columns:
    """Decoded column view of a packed stream: raw section buffers plus
    the op table and counts.  ``events``/``markers``/``reqc`` are
    memoryviews over the struct arrays; ``arena`` is an ``int64`` array."""

    __slots__ = (
        "ops", "codes", "events", "markers", "reqc", "arena",
        "nitems", "nevents", "_runs", "events_buf", "events_off",
    )

    def __init__(self, ops, codes, events, markers, reqc, arena, runs=None,
                 events_buf=None, events_off=0):
        self.ops = ops
        self.codes = codes
        self.events = events
        self.markers = markers
        self.reqc = reqc
        self.arena = arena
        self.nitems = len(codes)
        self.nevents = len(events) // EVENT_STRUCT.size
        self._runs = runs
        #: Zero-copy alias of the events section for consumers that need
        #: ``startswith``/slice compares (the run-collapsed ingest): a
        #: bytes/bytearray object containing the section at offset
        #: ``events_off`` — the whole source blob, or the encoder's live
        #: buffer.  ``None`` when the source only offered a memoryview;
        #: consumers then fall back to one ``bytes(events)`` copy.
        self.events_buf = events_buf
        self.events_off = events_off

    @property
    def runs(self) -> list[tuple[int, int]]:
        """Run descriptors ``(start_event_index, count)``, count ≥ 2 —
        either carried over from the encoder or recovered from the raw
        columns on first access (one linear scan)."""
        if self._runs is None:
            self._runs = _scan_runs(self)
        return self._runs


def is_packed(source) -> bool:
    """True when ``source`` is a :class:`PackedStream` or a packed blob."""
    if isinstance(source, PackedStream):
        return True
    if isinstance(source, (bytes, bytearray, memoryview)):
        return bytes(source[:4]) == MAGIC
    return False


def columns_of(source) -> Columns:
    """Column view of ``source`` (a :class:`PackedStream` or a blob)."""
    if isinstance(source, PackedStream):
        return Columns(
            source.ops,
            bytes(source.codes),
            memoryview(source.events),
            memoryview(source.markers),
            memoryview(source.reqc),
            source.arena,
            runs=list(source.runs),
            events_buf=source.events,
        )
    buf = memoryview(source)
    if bytes(buf[:4]) != MAGIC:
        raise PackedStreamError("bad magic: not a packed stream")
    if buf[4] != VERSION:
        raise PackedStreamError(f"unsupported packed-stream version {buf[4]}")
    pos = 5
    (nops,) = _U16.unpack_from(buf, pos)
    pos += 2
    ops = []
    for _ in range(nops):
        (nlen,) = _U16.unpack_from(buf, pos)
        pos += 2
        ops.append(bytes(buf[pos:pos + nlen]).decode("utf-8"))
        pos += nlen
    nitems, nevents, nmarkers, nreqc, arena_len = _COUNTS.unpack_from(buf, pos)
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
    codes = bytes(buf[pos:pos + nitems])
    pos += nitems
    markers = buf[pos:pos + nmarkers * MARKER_STRUCT.size]
    pos += nmarkers * MARKER_STRUCT.size
    events_off = pos
    events = buf[pos:pos + nevents * EVENT_STRUCT.size]
    pos += nevents * EVENT_STRUCT.size
    reqc = buf[pos:pos + nreqc * REQC_STRUCT.size]
    pos += nreqc * REQC_STRUCT.size
    arena = array("q")
    arena.frombytes(buf[pos:pos + arena_len * 8])
    events_buf = source if isinstance(source, (bytes, bytearray)) else None
    return Columns(ops, codes, events, markers, reqc, arena,
                   events_buf=events_buf, events_off=events_off)


def _scan_runs(cols: Columns) -> list[tuple[int, int]]:
    """Recover run descriptors from raw columns: one pass over the codes
    column, comparing each event's head bytes against its predecessor —
    the same raw-bytes test the encoder and the ingest cache use."""
    runs: list[tuple[int, int]] = []
    ebuf = cols.events
    esize = EVENT_STRUCT.size
    eligible_op = tuple(op not in NONBLOCKING_OPS for op in cols.ops)
    zero4 = b"\x00\x00\x00\x00"
    prev_head = None
    open_run = False
    ei = 0
    for code in cols.codes:
        if code == OP_EVENT:
            off = ei * esize
            (op_idx,) = _U16.unpack_from(ebuf, off)
            if (
                op_idx < len(eligible_op)
                and eligible_op[op_idx]
                and ebuf[off + EVENT_WILDCARD_OFF] == 0
                and ebuf[off + EVENT_REQSLEN_OFF:off + EVENT_PARAMS_END] == zero4
                and ebuf[off + EVENT_GIDSLEN_OFF:off + esize] == zero4
            ):
                head = ebuf[off:off + EVENT_PARAMS_END]
                if prev_head is not None and head == prev_head:
                    if open_run:
                        start, count = runs[-1]
                        runs[-1] = (start, count + 1)
                    else:
                        runs.append((ei - 1, 2))
                        open_run = True
                else:
                    prev_head = head
                    open_run = False
            else:
                prev_head = None
                open_run = False
            ei += 1
        else:
            prev_head = None
            open_run = False
    return runs


def event_runs(source) -> list[tuple[int, int]]:
    """Run descriptors ``(start_event_index, count)`` of ``source``
    (a :class:`PackedStream`, :class:`Columns`, or a packed blob)."""
    if isinstance(source, PackedStream):
        return list(source.runs)
    if isinstance(source, Columns):
        return list(source.runs)
    return list(columns_of(source).runs)


def decode_times(cols: Columns):
    """Decode the per-event timing columns in one C-speed sweep.

    Returns ``(starts, durations)`` as two ``array('d')`` of length
    ``cols.nevents`` — the padded sweep struct touches only the ``<dd``
    pair of each record."""
    starts = array("d")
    durations = array("d")
    sa = starts.append
    da = durations.append
    for start, dur in EVENT_TIMES_SWEEP.iter_unpack(cols.events):
        sa(start)
        da(dur)
    return starts, durations


def gap_columns(cols: Columns, last_end: float = 0.0):
    """Per-event ``(durations, gaps)`` columns, computed with the exact
    sequential recurrence the compressor uses (gap clamps at zero; the
    running last-end is the max end time seen so far).  ``last_end``
    seeds the recurrence for mid-stream chunks."""
    durations = array("d")
    gaps = array("d")
    da = durations.append
    ga = gaps.append
    for start, dur in EVENT_TIMES_SWEEP.iter_unpack(cols.events):
        gap = start - last_end
        if gap < 0.0:
            gap = 0.0
        end = start + dur
        if end > last_end:
            last_end = end
        da(dur)
        ga(gap)
    return durations, gaps


def iter_column_chunks(cols: Columns, chunk_items: int = CHUNK_ITEMS):
    """Yield ``(codes, events, markers, reqc)`` chunks of at most
    ``chunk_items`` stream items, each column fully unpacked to tuples.

    Splitting by item count keeps worker memory bounded on huge streams
    while each column slice still decodes in one ``iter_unpack`` sweep.
    """
    codes = cols.codes
    ev_off = mk_off = rc_off = 0
    ev_size, mk_size, rc_size = (
        EVENT_STRUCT.size, MARKER_STRUCT.size, REQC_STRUCT.size,
    )
    for start in range(0, len(codes), chunk_items):
        chunk = codes[start:start + chunk_items]
        nev = chunk.count(OP_EVENT)
        nrc = chunk.count(OP_REQ_COMPLETE)
        nmk = len(chunk) - nev - nrc
        events = list(EVENT_STRUCT.iter_unpack(
            cols.events[ev_off:ev_off + nev * ev_size]
        ))
        markers = list(MARKER_STRUCT.iter_unpack(
            cols.markers[mk_off:mk_off + nmk * mk_size]
        ))
        reqc = list(REQC_STRUCT.iter_unpack(
            cols.reqc[rc_off:rc_off + nrc * rc_size]
        ))
        ev_off += nev * ev_size
        mk_off += nmk * mk_size
        rc_off += nrc * rc_size
        yield chunk, events, markers, reqc


def event_from_fields(f: tuple, ops: list, arena) -> CommEvent:
    """Materialize one :class:`CommEvent` from an unpacked event record."""
    reqs_len = f[11]
    gids_len = f[19]
    return CommEvent(
        ops[f[0]], f[14], f[15], f[1], f[4], f[3], f[5], f[2], f[6],
        f[7], f[8], f[16],
        tuple(arena[f[17]:f[17] + reqs_len]) if reqs_len else (),
        bool(f[10]), f[9], f[12], f[13],
        tuple(arena[f[18]:f[18] + gids_len]) if gids_len else (),
    )


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
    """Decode a packed stream back to the capture-list tuple form.

    The inverse of :func:`encode_stream` — used by the reference ingest
    path, the codec round-trip tests, and quarantine (a quarantined
    packed rank is decoded once so its raw stream can be re-attached
    for fallback replay)."""
    cols = columns_of(source)
    ops, arena = cols.ops, cols.arena
    out: list[tuple] = []
    append = out.append
    for codes, events, markers, reqc in iter_column_chunks(cols):
        ei = mi = ri = 0
        for code in codes:
            if code == OP_EVENT:
                append((OP_EVENT, event_from_fields(events[ei], ops, arena)))
                ei += 1
            elif code == OP_REQ_COMPLETE:
                append((OP_REQ_COMPLETE,) + reqc[ri])
                ri += 1
            elif code == OP_FINALIZE:
                append((OP_FINALIZE,))
                mi += 1
            elif code == OP_BRANCH_ENTER:
                append((code, markers[mi][0], markers[mi][1]))
                mi += 1
            else:
                append((code, markers[mi][0]))
                mi += 1
    return out


def event_count(source) -> int:
    """Number of communication events in a packed stream, without a
    full decode (reads the header / encoder counter only)."""
    if isinstance(source, PackedStream):
        return source.nevents
    return columns_of(source).nevents
