"""Binary serialization of merged compressed traces.

CYPRESS writes its final job-wide trace as a compact binary file
(optionally gzip-compressed, the paper's "CYPRESS+Gzip" variant).  The
format is a faithful size-accounting vehicle for the trace-size figures:
varint-coded integers, zigzag for signed values, an interned string table
for op names, stride terms for every integer sequence, and sparse
histogram bins.

Container layout (version 8, crash-safe — docs/INTERNALS.md §7)::

    magic "CYTR" | version | sections...

    section := kind | nbytes | payload | crc32(kind..payload)

    kind 1 HEADER   : nranks | string table
    kind 2 TOPOLOGY : tree (pre-order): kind, [op/name idx],
                      [branch_path, branch ast id], nchildren
    kind 3 PAYLOAD  : first vertex index | nvertices | stats table |
                      per vertex, ngroups, then each group:
                      rank set (nitems | items) | payload
                      (counts / visits as flat terms, or a leaf block)
                      (chunked ~64 KiB so truncation loses one chunk,
                      not the whole payload)
    kind 0 END      : number of preceding sections | total vertex count

    item        := start | count >= 1 | stride        (a stride term)
                 | delta | 0 | reps >= 2 | k >= 1 | k items
                   (the k items reps times, copy r shifted by
                   r * delta; at most MAX_DEPTH blocks deep)
    stats table := nblocks | the chunk's distinct timing-stats blocks
                   in first-use order; records name theirs by index.
                   A block is form 0 (mean/std: count, mean, m2, min,
                   max), 1 (histogram: the same, then sparse bins) or
                   2 (one value: count, value; mean, min and max are
                   the value and m2 is 0)
    leaf block  := nrecords << 1 | columnar, then
                   rows    : per record, mask | the fields that differ
                             from the record before (from the defaults
                             in the first)
                   columns : mask | sequence mask | one value per
                             single-valued column | per other column,
                             items across the records

Virtual time repeats exactly, so a trace holds few distinct stats
blocks (43 of 4 044 on sp), and the records of an irregular leaf differ
in one or two parameters: a field every record shares with the default
(``NO_PEER``, tag 0, one occurrence term starting at the record's
position, …) is not written, one they share with each other is written
once, and one that varies costs a stride term a run, not a value a
record.  The table is per chunk so that a chunk still decodes from the
header and topology alone.

Every section carries a CRC32 over its own framing and payload, and the
END marker pins the section count — so a file fails loudly
(:class:`~repro.core.errors.TraceFormatError`) on any flipped bit or
missing tail, while ``loads(..., salvage=True)`` recovers the longest
checksum-valid prefix of a truncated file (vertices whose payload chunk
was lost simply have no groups).  Version 7 files still load: v7 wrote
only flat terms (never a zero count) and stats forms 0 and 1, so the one
reader takes both; every other version is refused.  The
leaf block is a record's one wire form: :mod:`repro.core.budget` writes
a rank snapshot's records through :class:`LeafWriter` too.  :func:`save`
is atomic (:func:`atomic_write`): an interrupted save never clobbers an
existing trace.

Round-trips: ``loads(dumps(m))`` reconstructs a replayable MergedCTT.
"""

from __future__ import annotations

import gzip as _gzip
import os
import struct
import zlib
from itertools import (
    accumulate, count as _naturals, islice, repeat, starmap,
)
from operator import lt

from repro import obs
from repro.mpisim.events import NO_PEER
from repro.static.cst import BRANCH, CALL, LOOP, ROOT

from .errors import TraceFormatError
from .inter import Group, MergedCTT, MergedVertex
from .ranks import ABS, REL, TOR
from .records import CompressedRecord, LeafView, StatsEntry
from .sequences import MAX_DEPTH, IntSequence, expand, nest
from .timing import _NBINS

_MAGIC = b"CYTR"
_VERSION = 9
#: What ``loads`` reads: v8 is v9 without TOR peers or a job size, and
#: v7 is v8 without blocks and one-value stats.
_READABLE = (7, 8, 9)

#: A peer's mode on the wire (the leaf columns ``PEER_MODE`` /
#: ``PEER2_MODE``); TOR only at a vertex that declares its torus.
_MODE_CODE = {ABS: 0, REL: 1, TOR: 2}

# Section kinds of the container.
_SEC_END = 0
_SEC_HEADER = 1
_SEC_TOPOLOGY = 2
_SEC_PAYLOAD = 3

#: Payload bytes per chunk section before a new chunk starts — the
#: granularity of salvage after truncation.
_CHUNK_BYTES = 1 << 16

_KIND_CODE = {ROOT: 0, LOOP: 1, BRANCH: 2, CALL: 3}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}

_pack_double = struct.Struct("<d").pack
_unpack_double = struct.Struct("<d").unpack_from
_pack_4d = struct.Struct("<4d").pack
_unpack_4d = struct.Struct("<4d").unpack_from  # mean, m2, minimum, maximum
_new = object.__new__

# Stats block forms (the first varint of a block).
_FORM_MEANSTD = 0
_FORM_HIST = 1
_FORM_ONE = 2
_POSITIVE_ZERO = _pack_double(0.0)


class ByteWriter:
    """Append-only encoder over one ``bytearray``."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def bytes(self) -> bytes:
        return bytes(self._buf)

    def size(self) -> int:
        """Bytes written so far — O(1), callers poll it per vertex."""
        return len(self._buf)

    def raw(self, data: bytes) -> None:
        self._buf += data

    def truncate(self, size: int) -> None:
        """Drop everything written after the first ``size`` bytes."""
        del self._buf[size:]

    def u(self, value: int) -> None:
        """Unsigned varint (LEB128)."""
        buf = self._buf
        if value < 0x80:
            if value < 0:
                raise ValueError(f"u() got negative {value}")
            buf.append(value)  # the common one-byte case
            return
        while value > 0x7F:
            buf.append(value & 0x7F | 0x80)
            value >>= 7
        buf.append(value)

    def z(self, value: int) -> None:
        """Signed varint (zigzag), exact for every Python int."""
        self.u(value << 1 if value >= 0 else (-value << 1) - 1)

    def f(self, value: float) -> None:
        self._buf += _pack_double(value)

    def s(self, text: str) -> None:
        data = text.encode("utf-8")
        self.u(len(data))
        self._buf += data


def _uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """The unsigned LEB128 varint at ``data[pos]``: ``(value, next
    position)``.  Running off the end is an :class:`IndexError`, which
    the callers that own a buffer translate.

    The body decoders below read the one-byte case — nearly every field
    — in line (``x = data[pos]; pos += 1``) and come here, one byte
    back, only when the continuation bit is set."""
    value = data[pos]
    pos += 1
    if value > 0x7F:
        value &= 0x7F
        shift = 7
        while True:
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
    return value, pos


class ByteReader:
    """Field-at-a-time decoder for the framing and cursor fields; the
    record bodies are decoded by the one-pass ``_read_*`` functions
    below, which take ``pos`` and hand it back."""

    __slots__ = ("_data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self.pos = pos

    def raw(self, n: int) -> bytes:
        out = self._data[self.pos : self.pos + n]
        if len(out) != n:
            raise TraceFormatError("truncated trace file")
        self.pos += n
        return out

    def u(self) -> int:
        try:
            value, self.pos = _uvarint(self._data, self.pos)
        except IndexError:
            raise TraceFormatError("truncated trace file") from None
        return value

    def z(self) -> int:
        raw = self.u()
        return (raw >> 1) ^ -(raw & 1)

    def f(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def s(self) -> str:
        return self.raw(self.u()).decode("utf-8")


# ---------------------------------------------------------------------------


def _write_seq(w: ByteWriter, seq: IntSequence) -> None:
    """Flat stride terms, counted: loop counts, branch visits and the
    baselines' sequences."""
    w.u(len(seq.terms))
    for start, count, stride in seq.terms:
        w.z(start)
        w.u(count)
        w.z(stride)


def _read_seq(data: bytes, pos: int) -> tuple[IntSequence, int]:
    """The inverse of :func:`_write_seq`.  Flat terms only: a zero count
    (a block elsewhere) is refused."""
    nterms = data[pos]
    pos += 1
    if nterms > 0x7F:
        nterms, pos = _uvarint(data, pos - 1)
    terms = []
    length = 0
    for _ in range(nterms):
        start = data[pos]
        pos += 1
        if start > 0x7F:
            start, pos = _uvarint(data, pos - 1)
        count = data[pos]
        pos += 1
        if count > 0x7F:
            count, pos = _uvarint(data, pos - 1)
        elif not count:
            raise TraceFormatError(
                "a loop count or branch visit sequence holds a term of "
                "count 0"
            )
        stride = data[pos]
        pos += 1
        if stride > 0x7F:
            stride, pos = _uvarint(data, pos - 1)
        terms.append(
            ((start >> 1) ^ -(start & 1), count, (stride >> 1) ^ -(stride & 1))
        )
        length += count
    seq = _new(IntSequence)
    seq.terms = terms
    seq.length = length
    return seq, pos


def _write_items(w: ByteWriter, items) -> None:
    """Stride terms and blocks (:func:`~repro.core.sequences.nest`)."""
    for item in items:
        if item[1]:
            start, count, stride = item
            w.z(start)
            w.u(count)
            w.z(stride)
        else:
            delta, _, reps, inner = item
            w.z(delta)
            w.u(0)
            w.u(reps)
            w.u(len(inner))
            _write_items(w, inner)


def _read_block(
    data: bytes, pos: int, delta: int, left: int, depth: int, where: str
) -> tuple[tuple, int, int]:
    """The block whose ``z(delta) u(0)`` were just read, ``depth``
    blocks deep: ``(the block as an item, values it stands for,
    position after)``.  Its items are read first, each bounded by
    ``left``; the copies are then bounded arithmetically — nothing is
    expanded here, and nothing longer than ``left`` ever will be."""
    reps, pos = _uvarint(data, pos)
    nitems, pos = _uvarint(data, pos)
    if depth > MAX_DEPTH:
        raise TraceFormatError(
            f"{where}: blocks nest deeper than {MAX_DEPTH}"
        )
    if reps < 2 or not nitems:
        raise TraceFormatError(
            f"{where}: a block repeats {nitems} item(s) {reps} time(s)"
        )
    items, covered, pos = _read_items(data, pos, nitems, left, depth, where)
    if reps * covered > left:
        raise TraceFormatError(
            f"{where}: a block covers {reps} x {covered} value(s), "
            f"{left} left"
        )
    return (delta, 0, reps, items), reps * covered, pos


def _read_items(
    data: bytes, pos: int, nitems: int, left: int, depth: int, where: str
) -> tuple[list, int, int]:
    """``nitems`` items inside ``depth`` blocks, together covering at
    most ``left`` values: ``(items, values covered, position after)``."""
    items = []
    covered = 0
    for _ in range(nitems):
        start = data[pos]
        pos += 1
        if start > 0x7F:
            start, pos = _uvarint(data, pos - 1)
        start = (start >> 1) ^ -(start & 1)
        count = data[pos]
        pos += 1
        if count > 0x7F:
            count, pos = _uvarint(data, pos - 1)
        if count:
            stride = data[pos]
            pos += 1
            if stride > 0x7F:
                stride, pos = _uvarint(data, pos - 1)
            if count > left - covered:
                raise TraceFormatError(
                    f"{where}: a term covers {count} value(s), "
                    f"{left - covered} left"
                )
            items.append((start, count, (stride >> 1) ^ -(stride & 1)))
        else:
            item, count, pos = _read_block(
                data, pos, start, left - covered, depth + 1, where
            )
            items.append(item)
        covered += count
    return items, covered, pos


#: A rank set is matched against at most this many rank sets parsed
#: earlier with the same first four bytes, latest first, before it is
#: parsed itself: a hostile file can make any number share them.  (The
#: 32 distinct rank sets of mg at 256 ranks share at most 13 a head.)
_RANK_SET_PROBES = 32


def _read_ranks(
    data: bytes, pos: int, nranks: int, gid: int, known: dict
) -> tuple[list[int], int]:
    """A group's rank set: ``nitems | items``, refused as soon as it
    declares more members than the job has — on the declared lengths,
    before any list exists (one stride term can claim 10**11 ranks in
    six checksum-valid bytes) — and refused, too, when it is empty or
    is not a strictly ascending list of ranks ≥ 0 (the writer's only
    form, which ``MergedVertex.group_of`` bisects).

    A job's groups repeat their rank sets vertex after vertex, so each
    distinct one is parsed once a load.  ``known`` maps the first four
    bytes of every rank set parsed so far (the shortest legal one: one
    item count, one three-varint term) to ``(bytes, ranks)`` pairs.  The
    encoding is prefix-free, so bytes at ``pos`` that start with a
    parsed rank set *are* that rank set, already checked."""
    bucket = known.get(data[pos:pos + 4])
    if bucket is not None:
        for word, ranks in islice(reversed(bucket), _RANK_SET_PROBES):
            if data.startswith(word, pos):
                return ranks.copy(), pos + len(word)
    at = pos
    nitems = data[pos]
    pos += 1
    if nitems > 0x7F:
        nitems, pos = _uvarint(data, pos - 1)
    if not nitems:
        raise TraceFormatError(f"vertex {gid}: a group's rank set is empty")
    items, total, pos = _read_items(
        data, pos, nitems, nranks, 0, f"vertex {gid}: a group's rank set"
    )
    ranks = IntSequence(expand(items), total).to_list()
    if ranks[0] < 0:
        raise TraceFormatError(
            f"vertex {gid}: a group's rank set names rank {ranks[0]}"
        )
    if not all(map(lt, ranks, islice(ranks, 1, None))):
        raise TraceFormatError(
            f"vertex {gid}: a group's rank set is not ascending"
        )
    word = data[at:pos]
    known.setdefault(word[:4], []).append((word, ranks))
    return ranks.copy(), pos


# ---------------------------------------------------------------------------
# Leaf blocks: a CALL group's records over a stats table, as rows of
# written fields or column by column.

#: The fields of a record in mask-bit (= wire) order: the ones an
#: ordinary leaf writes come first, so its masks fit one or two bytes,
#: and a field that sizes others (``NTERMS``, ``NGIDS``) precedes them.
(
    _C_DUR, _C_GAP, _C_PEER_MODE, _C_PEER, _C_TAG, _C_NBYTES, _C_NTERMS,
    _C_COUNT, _C_STRIDE, _C_START, _C_COMM, _C_ROOT, _C_NGIDS, _C_GIDS,
    _C_WILDCARD, _C_PEER2_MODE, _C_PEER2, _C_TAG2, _C_NBYTES2,
    _C_RESULT_COMM, _C_OP,
) = range(21)
_NCOLS = 21

#: What a field holds when its mask bit is clear.  ``None``: no
#: constant — an unwritten ``START`` counts the group's occurrence terms
#: 0, 1, 2, … (one term a record: its position), ``GIDS`` is unwritten
#: only without request gids, ``OP`` defaults to the vertex's own op.
_DEFAULTS = tuple(
    NO_PEER if col in (_C_PEER, _C_PEER2)
    else 1 if col in (_C_NTERMS, _C_COUNT)
    else -1 if col in (_C_ROOT, _C_RESULT_COMM)
    else None if col in (_C_START, _C_GIDS, _C_OP)
    else 0
    for col in range(_NCOLS)
)

#: Per seven mask bits, the positions set in them.
_SET_BITS = [
    tuple(bit for bit in range(7) if byte >> bit & 1) for byte in range(128)
]

#: A group of at most this many records, every one of them scalar (at
#: most one occurrence term and one request gid), is written as rows.
#: Measured, not tuned per workload: up to four records rows read faster
#: than columns set up and are no larger (mg, cg); from eighteen on the
#: stride terms win (sp: rows +45%); nothing in the suite lies between.
_ROW_GROUP = 4

#: A leaf block may declare at most this many records, occurrence terms
#: or request gids a byte left in its chunk: the reader's bound ahead of
#: every list a block builds.  Blocks code a regular column below a byte
#: a value (sp: 84 records in 56 bytes), so the bound is not one.
_PER_BYTE = 4

#: Column ranges by the length of their sequences: one value a record,
#: except one an occurrence term (``COUNT``..``START``) or a request gid.
_PER_TERM = 1 << _C_COUNT | 1 << _C_STRIDE | 1 << _C_START
_BELOW_PER_TERM = (1 << _C_COUNT) - 1
_COMM_TO_NGIDS = 1 << _C_COMM | 1 << _C_ROOT | 1 << _C_NGIDS
_ABOVE_GIDS = (1 << _NCOLS) - (1 << _C_WILDCARD)


def _leaf_defaults(op_index: int) -> list:
    """What an unwritten field holds at a CALL vertex whose own op has
    ``op_index`` in the string table."""
    defaults = list(_DEFAULTS)
    defaults[_C_OP] = op_index
    return defaults


class LeafWriter:
    """The records of CALL vertices as leaf blocks over one stats table
    — a payload chunk's here, a rank snapshot's in
    :mod:`repro.core.budget`.  The table holds the distinct stats blocks
    in first-use order, keyed by the exact bytes of their fields
    (``-0.0``, NaN payloads and empty blocks are themselves, not what
    they compare equal to); it is complete, and written
    (:meth:`table`), once the last block is."""

    __slots__ = ("strings", "index", "blocks", "_defaults", "_nested")

    def __init__(self, strings: dict[str, int]) -> None:
        self.strings = strings
        self.index: dict[tuple, int] = {}
        self.blocks = ByteWriter()
        self._defaults: dict[str | None, list] = {}
        self._nested: dict[tuple, list] = {}

    def nest(self, terms: list) -> list:
        """:func:`~repro.core.sequences.nest` of ``terms``, built once a
        chunk: a job's groups repeat their rank sets and leaf columns
        vertex after vertex."""
        key = tuple(terms)
        items = self._nested.get(key)
        if items is None:
            items = self._nested[key] = nest(terms)
        return items

    def add(
        self, count: int, mean: float, m2: float, low: float, high: float,
        bins: list[int] | None,
    ) -> int:
        """The table index of one stats block (a record's duration or
        pre-gap slots), appended on first use: form 2 when mean, minimum
        and maximum are one value bit for bit and ``m2`` is ``+0.0`` (a
        histogram keeps its bins in form 1)."""
        if not count:
            low = high = 0.0
        hist = bins is not None
        doubles = _pack_4d(mean, m2, low, high)
        key = (count, doubles, tuple(bins) if hist else None)
        index = self.index
        at = index.get(key)
        if at is None:
            at = index[key] = len(index)
            w = self.blocks
            value = doubles[:8]
            if hist:
                w.u(_FORM_HIST)
                w.u(count)
                w.raw(doubles)
                nonzero = [(i, b) for i, b in enumerate(bins) if b]
                w.u(len(nonzero))
                for i, b in nonzero:
                    w.u(i)
                    w.u(b)
            elif (
                doubles[8:16] == _POSITIVE_ZERO
                and value == doubles[16:24] == doubles[24:]
            ):
                w.u(_FORM_ONE)
                w.u(count)
                w.raw(value)
            else:
                w.u(_FORM_MEANSTD)
                w.u(count)
                w.raw(doubles)
        return at

    def add_record(self, rec: CompressedRecord) -> tuple[int, int]:
        """The table indices of ``rec``'s duration and pre-gap blocks
        (:meth:`add`, duration first)."""
        return (
            self.add(rec.dur_count, rec.dur_mean, rec.dur_m2, rec.dur_min,
                     rec.dur_max, rec.dur_bins),
            self.add(rec.gap_count, rec.gap_mean, rec.gap_m2, rec.gap_min,
                     rec.gap_max, rec.gap_bins),
        )

    def leaf(self, w: ByteWriter, op: str | None, records: list) -> None:
        """Append the leaf block of ``records`` at a vertex of ``op``."""
        defaults = self._defaults.get(op)
        if defaults is None:
            strings = self.strings
            defaults = self._defaults[op] = _leaf_defaults(
                strings.get(op, len(strings))
            )
        _write_leaf(w, records, self.strings, defaults, self)

    def table(self, w: ByteWriter) -> None:
        """Append ``nblocks | blocks``: what a reader needs first."""
        w.u(len(self.index))
        w.raw(self.blocks.bytes())


def _is_scalar(rec: CompressedRecord) -> bool:
    return not rec.terms and len(rec.key[10]) <= 1


def _write_row(
    w: ByteWriter, rec: CompressedRecord, position: int,
    strings: dict[str, int], previous: list, stats: LeafWriter,
) -> list:
    """One scalar record: the mask of its fields that differ from the
    ``previous`` row's (the defaults before the first), then those
    fields.  Returns this row's fields."""
    (op, enc, enc2, tag, tag2, nbytes, nbytes2, comm, root, wildcard, gids,
     result_comm) = rec.key
    count = previous[_C_COUNT]
    stride = previous[_C_STRIDE]
    start = previous[_C_START]
    if rec.terms is None:  # one term
        nterms = 1
        at, count, stride = rec.start, rec.length, rec.stride
        if start is not None or at != position:
            start = at  # else unwritten so far: the record's position
    else:
        nterms = 0
    fields = [  # in column order
        *stats.add_record(rec), _MODE_CODE[enc[0]], enc[1], tag, nbytes,
        nterms, count, stride, start, comm, root, len(gids),
        gids[0] if gids else previous[_C_GIDS], 1 if wildcard else 0,
        _MODE_CODE[enc2[0]], enc2[1], tag2, nbytes2, result_comm,
        strings[op],
    ]
    mask = 0
    written = []
    for col, value in enumerate(fields):
        if value != previous[col]:
            mask |= 1 << col
            written.append(value)
    w.u(mask)
    for value in written:
        w.z(value)
    return fields


def _leaf_columns(
    records: list[CompressedRecord], strings: dict[str, int],
    stats: LeafWriter,
) -> list:
    """The records of one CALL group, transposed: a sequence of values
    per column."""
    (ops, peers, peers2, tags, tags2, nbytes, nbytes2, comms, roots,
     wildcards, gids, result_comms) = zip(*[rec.key for rec in records])
    flat = []
    nterms = []
    for rec in records:
        terms = rec.terms
        if terms is None:
            flat.append((rec.start, rec.length, rec.stride))
            nterms.append(1)
        else:
            flat.extend(terms)
            nterms.append(len(terms))
    starts, counts, strides = zip(*flat) if flat else ((), (), ())
    # first use: duration, then pre-gap, a record
    durations, gaps = zip(*map(stats.add_record, records))
    return [  # in column order
        durations, gaps,
        [_MODE_CODE[enc[0]] for enc in peers],
        [enc[1] for enc in peers],
        tags, nbytes, nterms, counts, strides, starts,
        comms, roots, [len(g) for g in gids],
        [gid for g in gids for gid in g],
        [1 if wc else 0 for wc in wildcards],
        [_MODE_CODE[enc[0]] for enc in peers2],
        [enc[1] for enc in peers2],
        tags2, nbytes2, result_comms, [strings[op] for op in ops],
    ]


def _short_terms(values) -> list[tuple[int, int, int]]:
    """Stride terms of at most three values each: three varints or more
    a term, so never less than a byte a value."""
    terms = []
    for start, count, stride in IntSequence.from_values(values).terms:
        while count > 3:
            terms.append((start, 3, stride))
            start += 3 * stride
            count -= 3
        terms.append((start, count, stride))
    return terms


def _write_columns(
    w: ByteWriter, cols: list, defaults: list, spread: int | None,
    stats: LeafWriter,
) -> None:
    """The mask of written columns, the mask of those written as
    sequences, one value per other written column, then the sequences:
    items until they cover the column (flat short terms for column
    ``spread``, whatever it holds)."""
    mask = multi = 0
    singles = []
    sequences = []
    for col, values in enumerate(cols):
        length = len(values)
        if not length:
            continue
        first = values[0]
        bit = 1 << col
        if col == spread:
            multi |= bit
            sequences.append(_short_terms(values))
        elif col == _C_START and not first and values == tuple(range(length)):
            continue
        elif length == 1 or values.count(first) == length:
            if first == defaults[col]:
                continue
            singles.append(first)
        else:
            multi |= bit
            sequences.append(
                stats.nest(IntSequence.from_values(values).terms)
            )
        mask |= bit
    w.u(mask)
    w.u(multi)
    for value in singles:
        w.z(value)
    for items in sequences:
        _write_items(w, items)


def _write_leaf(
    w: ByteWriter, records: list[CompressedRecord], strings: dict[str, int],
    defaults: list, stats: LeafWriter,
) -> None:
    """``nrecords << 1 | columnar``, then the rows or the columns."""
    nrecords = len(records)
    if nrecords <= _ROW_GROUP and all(map(_is_scalar, records)):
        w.u(nrecords << 1)
        fields = defaults
        for position, rec in enumerate(records):
            fields = _write_row(w, rec, position, strings, fields, stats)
        return
    w.u(nrecords << 1 | 1)
    cols = _leaf_columns(records, strings, stats)
    start = w.size()
    _write_columns(w, cols, defaults, None, stats)
    # The reader refuses a record, term or gid count above _PER_BYTE
    # times the bytes left in its chunk, so a block may not code below
    # that: one that does is rewritten with its longest such column
    # spread out.
    declared, longest = max(
        (nrecords, _C_NTERMS), (len(cols[_C_START]), _C_START),
        (len(cols[_C_GIDS]), _C_GIDS), key=lambda pair: pair[0],
    )
    if _PER_BYTE * (w.size() - start) < declared:
        w.truncate(start)
        _write_columns(w, cols, defaults, longest, stats)


def _new_record(
    key: tuple, terms, length: int, duration: tuple, gap: tuple
) -> CompressedRecord:
    """A loaded record, filled slot by slot as
    :meth:`CompressedRecord.first` does, its stats copied out of two
    table entries.  ``terms``: a one-term sequence, or a list of any
    other number of terms (the record keeps the list)."""
    rec = _new(CompressedRecord)
    rec.key = key
    rec.pending = False
    rec.length = length
    if len(terms) == 1:
        (rec.start, _, rec.stride), = terms
        rec.terms = None
    else:
        rec.start = rec.stride = 0
        rec.terms = terms
    (rec.dur_count, rec.dur_mean, rec.dur_m2, rec.dur_min, rec.dur_max,
     bins) = duration
    rec.dur_bins = bins and list(bins)
    (rec.gap_count, rec.gap_mean, rec.gap_m2, rec.gap_min, rec.gap_max,
     bins) = gap
    rec.gap_bins = bins and list(bins)
    return rec


def _runs(values: list, sizes: list[int]) -> list[list]:
    """``values`` cut into consecutive runs of ``sizes``."""
    return [values[end - k : end] for k, end in zip(sizes, accumulate(sizes))]


def _peer(mode: int, value: int, torus: tuple[int, int] | None) -> tuple:
    """One encoded peer from its wire mode and value (``torus``: the
    vertex's ``(s, m)``, which the decoder checked a TOR mode has)."""
    if mode == 2:
        return (TOR, value, *torus)
    return (REL if mode else ABS, value)


def _peers_of(
    vals: list, mode_col: int, value_col: int, multi: int, n: int,
    torus: tuple[int, int] | None = None,
) -> list:
    """The ``n`` encoded peers a pair of peer columns holds."""
    modes, values = vals[mode_col], vals[value_col]
    if torus is not None:
        modes = modes if multi >> mode_col & 1 else [modes] * n
        values = values if multi >> value_col & 1 else [values] * n
        return [_peer(mode, value, torus) for mode, value in zip(modes, values)]
    if multi >> mode_col & 1:
        modes = [REL if mode else ABS for mode in modes]
    else:
        modes = REL if modes else ABS
        if not multi >> value_col & 1:
            return [(modes, values)] * n
        modes = repeat(modes)
    if not multi >> value_col & 1:
        values = repeat(values)
    return list(zip(modes, values))


class LeafColumns:
    """One decoded leaf block as the reader holds it, validated: every
    refusal was the decoder's, so nothing here can fail, and nothing
    here is built before it is asked for.

    Written as columns: ``vals[col]`` is the column's one value or,
    where bit ``col`` of ``multi`` is set, a list — a value a record,
    except an occurrence term for ``COUNT``..``START`` and a request gid
    for ``GIDS``; ``START`` ``None`` numbers the terms 0, 1, 2, ….
    Written as rows (at most ``_ROW_GROUP`` scalar records, where
    setting columns up costs more than the records): ``rows`` holds each
    record's 21 fields, ``START`` filled in.  Either way the index
    fields are resolved — ``DUR`` / ``GAP`` hold the chunk's
    :class:`StatsEntry`, ``OP`` the name.  ``torus``: the vertex's
    ``(s, m)``, which a TOR peer mode (2) completes."""

    __slots__ = ("nrecords", "rows", "multi", "vals", "torus", "_view")

    def __init__(
        self, nrecords, rows=None, multi=0, vals=None, torus=None
    ) -> None:
        self.nrecords = nrecords
        self.rows = rows
        self.multi = multi
        self.vals = vals
        self.torus = torus
        self._view: LeafView | None = None

    def _column(self, col: int):
        value = self.vals[col]
        return value if self.multi >> col & 1 else repeat(value)

    def _spread(self, col: int) -> list:
        value = self.vals[col]
        return value if self.multi >> col & 1 else [value] * self.nrecords

    def _one_term_each(self) -> bool:
        return self.vals[_C_NTERMS] == 1 and not self.multi >> _C_NTERMS & 1

    def _lengths(self) -> list[int]:
        """Occurrences a record: the counts of its terms, summed."""
        if self._one_term_each():
            return self._spread(_C_COUNT)
        nterms = self._spread(_C_NTERMS)
        counts = self.vals[_C_COUNT]
        if not self.multi >> _C_COUNT & 1:
            return [counts * k for k in nterms]
        return list(map(sum, _runs(counts, nterms)))

    def view(self) -> LeafView | None:
        """The columns the queries reduce (:mod:`repro.query.engine`),
        ``None`` for a block without records; built once."""
        view = self._view
        if view is None and self.nrecords:
            if self.rows is not None:
                torus = self.torus
                view = LeafView.of(*zip(*[
                    (row[_C_OP], row[_C_COUNT] * row[_C_NTERMS],
                     row[_C_NBYTES], row[_C_NBYTES2], row[_C_DUR],
                     row[_C_GAP],
                     _peer(row[_C_PEER_MODE], row[_C_PEER], torus))
                    for row in self.rows
                ]))
            else:
                view = LeafView.of(
                    self.vals[_C_OP], self._lengths(), *map(
                        self._spread,
                        (_C_NBYTES, _C_NBYTES2, _C_DUR, _C_GAP),
                    ),
                    _peers_of(self.vals, _C_PEER_MODE, _C_PEER, self.multi,
                              self.nrecords, self.torus),
                )
            self._view = view
        return view

    def _payloads(self):
        """Per record, what :func:`_new_record` takes: ``(key,
        occurrence terms, occurrence length, duration, gap)``.  From
        columns ``zip`` hands back the 12-tuples and the ``(start,
        count, stride)`` terms a column at a time, and an unwritten or
        single-valued column is never expanded (``repeat``)."""
        torus = self.torus
        if self.rows is not None:
            return [
                (
                    (op, _peer(mode, peer, torus), _peer(mode2, peer2, torus),
                     tag, tag2, nbytes, nbytes2, comm, root, wildcard != 0,
                     (gids,) * ngids, result_comm),
                    [(start, count, stride)] * nterms, count * nterms,
                    duration, gap,
                )
                for (duration, gap, mode, peer, tag, nbytes, nterms, count,
                     stride, start, comm, root, ngids, gids, wildcard, mode2,
                     peer2, tag2, nbytes2, result_comm, op) in self.rows
            ]
        vals, multi, column = self.vals, self.multi, self._column
        wildcards = vals[_C_WILDCARD]
        if multi >> _C_WILDCARD & 1:
            wildcards = [wc != 0 for wc in wildcards]
        else:
            wildcards = repeat(wildcards != 0)
        values = vals[_C_GIDS]
        if values is None:
            gids = repeat(())
        else:
            ngids = self._spread(_C_NGIDS)
            if not multi >> _C_GIDS & 1:
                values = [values] * sum(ngids)
            gids = map(tuple, _runs(values, ngids))
        keys = zip(
            column(_C_OP),
            _peers_of(vals, _C_PEER_MODE, _C_PEER, multi, self.nrecords,
                      torus),
            _peers_of(vals, _C_PEER2_MODE, _C_PEER2, multi, self.nrecords,
                      torus),
            column(_C_TAG), column(_C_TAG2), column(_C_NBYTES),
            column(_C_NBYTES2), column(_C_COMM), column(_C_ROOT), wildcards,
            gids, column(_C_RESULT_COMM),
        )
        starts = vals[_C_START]
        if starts is None:
            starts = _naturals()
        elif not multi >> _C_START & 1:
            starts = repeat(starts)
        terms = zip(starts, column(_C_COUNT), column(_C_STRIDE))
        if self._one_term_each():
            terms = zip(terms)
        else:
            terms = [list(islice(terms, k)) for k in self._spread(_C_NTERMS)]
        return zip(
            keys, terms, self._lengths(), column(_C_DUR), column(_C_GAP)
        )

    def records(self) -> list[CompressedRecord]:
        """The block as records, each with stats of its own (no two
        loaded records share mutable state)."""
        return list(starmap(_new_record, self._payloads()))


def _check_peers(modes, values, torus, gid: int) -> None:
    """Every peer mode is ABS (0), REL (1) or, at a vertex that declares
    its torus ``(s, m)``, TOR (2) with ``|t| <= m/2``."""
    top = 1 if torus is None else 2
    for mode, value in zip(modes, values):
        if not 0 <= mode <= top or (mode == 2 and 2 * abs(value) > torus[1]):
            raise TraceFormatError(
                f"vertex {gid}: peer mode {mode} with value {value} is not "
                f"ABS (0), REL (1) or, at a vertex with a torus (here "
                f"{torus}), TOR (2) within half the ring"
            )


def _check_peer_columns(
    vals: list, multi: int, mode_col: int, value_col: int, n: int, torus,
    gid: int,
) -> None:
    """:func:`_check_peers` over a pair of peer columns; only a mode
    other than ABS or REL is looked at value by value."""
    modes = vals[mode_col]
    many = multi >> mode_col & 1
    if (min(modes) if many else modes) < 0 or (max(modes) if many else modes) > 1:
        values = vals[value_col]
        _check_peers(
            modes if many else [modes] * n,
            values if multi >> value_col & 1 else [values] * n, torus, gid,
        )


def _read_rows(
    data: bytes, pos: int, nrecords: int, strings: list[str], table: list,
    defaults: list, gid: int, torus=None,
) -> tuple[LeafColumns, int]:
    """Decode ``nrecords`` scalar records, each one masked pass over the
    fields of the row before it (``defaults`` before the first)."""
    ntable = len(table)
    fields = defaults.copy()
    rows = []
    for position in range(nrecords):
        mask = data[pos]
        pos += 1
        if mask > 0x7F:
            mask, pos = _uvarint(data, pos - 1)
            if mask >> _NCOLS:
                raise TraceFormatError(
                    f"vertex {gid}: record mask {mask:#x} names a field "
                    f"past the last ({_NCOLS - 1})"
                )
        base = 0
        while mask:
            for bit in _SET_BITS[mask & 0x7F]:
                value = data[pos]
                pos += 1
                if value > 0x7F:
                    value, pos = _uvarint(data, pos - 1)
                fields[base + bit] = (value >> 1) ^ -(value & 1)
            mask >>= 7
            base += 7
        row = fields.copy()
        duration, gap, op = row[_C_DUR], row[_C_GAP], row[_C_OP]
        nterms, ngids = row[_C_NTERMS], row[_C_NGIDS]
        # Unsigned where a negative would index from the end or
        # multiply a list; a row holds at most one term and one gid.
        if (
            not 0 <= duration < ntable or not 0 <= gap < ntable or op < 0
            or not 0 <= nterms <= 1 or not 0 <= ngids <= 1
            or (ngids and row[_C_GIDS] is None)
        ):
            raise TraceFormatError(
                f"vertex {gid}: a record's stats index ({duration}, {gap} "
                f"of {ntable}), op index ({op}), term count ({nterms}) or "
                f"request gids ({ngids}) is out of range"
            )
        mode, mode2 = row[_C_PEER_MODE], row[_C_PEER2_MODE]
        if not (0 <= mode <= 1 and 0 <= mode2 <= 1):
            _check_peers(
                (mode, mode2), (row[_C_PEER], row[_C_PEER2]), torus, gid
            )
        row[_C_DUR] = table[duration]
        row[_C_GAP] = table[gap]
        row[_C_OP] = strings[op]  # past the table: the caller's IndexError
        if row[_C_START] is None:  # unwritten so far: the record's position
            row[_C_START] = position
        rows.append(row)
    return LeafColumns(nrecords, rows, torus=torus), pos


def _read_sequences(
    data: bytes, pos: int, vals: list, bits: int, length: int, gid: int
) -> int:
    """Decode the sequence columns named by ``bits``, each ``length``
    values long, into ``vals``; returns the position after them.  An
    item may not cover more than the column has left, so nothing longer
    than ``length`` — which the caller has bounded — is ever built."""
    col = 0
    while bits:
        if bits & 1:
            values: list[int] = []
            left = length
            while left:
                start = data[pos]
                pos += 1
                if start > 0x7F:
                    start, pos = _uvarint(data, pos - 1)
                start = (start >> 1) ^ -(start & 1)
                count = data[pos]
                pos += 1
                if count > 0x7F:
                    count, pos = _uvarint(data, pos - 1)
                elif not count:  # a block, shifted by ``start`` a copy
                    block, count, pos = _read_block(
                        data, pos, start, left, 1,
                        f"vertex {gid}: leaf column {col}",
                    )
                    left -= count
                    values += IntSequence(expand((block,)), count).to_list()
                    continue
                stride = data[pos]
                pos += 1
                if stride > 0x7F:
                    stride, pos = _uvarint(data, pos - 1)
                if count > left:
                    raise TraceFormatError(
                        f"vertex {gid}: a term of leaf column {col} covers "
                        f"{count} value(s), the column has {left} left"
                    )
                left -= count
                if stride:
                    stride = (stride >> 1) ^ -(stride & 1)
                    values.extend(range(start, start + count * stride, stride))
                else:
                    values.extend([start] * count)
            vals[col] = values
        bits >>= 1
        col += 1
    return pos


def _declared_total(
    vals: list, col: int, multi: int, nrecords: int, room: int, gid: int
) -> int:
    """The sum of a counting column (occurrence terms or request gids
    a record), refused when negative anywhere or beyond ``_PER_BYTE``
    times the bytes left in the chunk — before anything of that size is
    built."""
    counts = vals[col]
    if multi >> col & 1:
        total = sum(counts)
        lowest = min(counts)
    else:
        total = counts * nrecords
        lowest = counts
    if lowest < 0 or total > _PER_BYTE * room:
        raise TraceFormatError(
            f"vertex {gid}: leaf column {col} declares {total} value(s) "
            f"(lowest count {lowest}) with {room} byte(s) left in the chunk"
        )
    return total


def _check_stats_index(
    vals: list, col: int, multi: int, ntable: int, gid: int
) -> None:
    """A stats-index column stays inside the chunk's table."""
    index = vals[col]
    many = multi >> col & 1
    low, high = (min(index), max(index)) if many else (index, index)
    if low < 0 or high >= ntable:  # -1 must not index from the end
        raise TraceFormatError(
            f"vertex {gid}: stats index {low if low < 0 else high} outside "
            f"the chunk's table of {ntable}"
        )


def _read_columns(
    data: bytes, pos: int, nrecords: int, room: int, strings: list[str],
    table: list, defaults: list, gid: int, torus=None,
) -> tuple[LeafColumns, int]:
    """Decode ``nrecords`` records written column by column.  Every
    single value is read in one masked pass into a copy of ``defaults``;
    only columns written as sequences become lists."""
    mask, pos = _uvarint(data, pos)
    multi, pos = _uvarint(data, pos)
    if mask >> _NCOLS or multi & ~mask or not nrecords:
        raise TraceFormatError(
            f"vertex {gid}: leaf masks {mask:#x}/{multi:#x} of {nrecords} "
            f"record(s) name a column past the last ({_NCOLS - 1}) or a "
            f"sequence that is not written"
        )
    vals = defaults.copy()
    bits = mask ^ multi
    base = 0
    while bits:
        for bit in _SET_BITS[bits & 0x7F]:
            value, pos = _uvarint(data, pos)
            vals[base + bit] = (value >> 1) ^ -(value & 1)
        bits >>= 7
        base += 7
    if multi & _BELOW_PER_TERM:
        pos = _read_sequences(
            data, pos, vals, multi & _BELOW_PER_TERM, nrecords, gid
        )
    nterms = _declared_total(vals, _C_NTERMS, multi, nrecords, room, gid)
    if multi & _PER_TERM:
        pos = _read_sequences(data, pos, vals, multi & _PER_TERM, nterms, gid)
    if multi & _COMM_TO_NGIDS:
        pos = _read_sequences(
            data, pos, vals, multi & _COMM_TO_NGIDS, nrecords, gid
        )
    ngids = _declared_total(vals, _C_NGIDS, multi, nrecords, room, gid)
    if multi >> _C_GIDS & 1:
        pos = _read_sequences(data, pos, vals, 1 << _C_GIDS, ngids, gid)
    if multi & _ABOVE_GIDS:
        pos = _read_sequences(
            data, pos, vals, multi & _ABOVE_GIDS, nrecords, gid
        )
    ops = vals[_C_OP]
    if (min(ops) if multi >> _C_OP & 1 else ops) < 0:
        raise TraceFormatError(f"vertex {gid}: negative op index")
    if ngids and vals[_C_GIDS] is None:
        raise TraceFormatError(
            f"vertex {gid}: {ngids} request gid(s) declared, none written"
        )
    _check_stats_index(vals, _C_DUR, multi, len(table), gid)
    _check_stats_index(vals, _C_GAP, multi, len(table), gid)
    _check_peer_columns(
        vals, multi, _C_PEER_MODE, _C_PEER, nrecords, torus, gid
    )
    _check_peer_columns(
        vals, multi, _C_PEER2_MODE, _C_PEER2, nrecords, torus, gid
    )
    # The index columns name what they point at from here on; an op
    # past the string table is the caller's ``IndexError``.
    for col, names in (_C_DUR, table), (_C_GAP, table), (_C_OP, strings):
        at = vals[col]
        vals[col] = [names[i] for i in at] if multi >> col & 1 else names[at]
    return LeafColumns(nrecords, None, multi, vals, torus), pos


def _read_leaf(
    data: bytes, pos: int, strings: list[str], table: list, defaults: list,
    gid: int, torus=None,
) -> tuple[LeafColumns, int]:
    """Decode one leaf block: ``(columns, position after it)``.  A
    record costs at least a byte as a row and ``1 / _PER_BYTE`` of one
    in columns (the writer sees to it), which bounds the declared
    count."""
    room = len(data) - pos
    head, pos = _uvarint(data, pos)
    nrecords = head >> 1
    if nrecords > _PER_BYTE * room:
        raise TraceFormatError(
            f"vertex {gid}: a group declares {nrecords} record(s) with "
            f"{room} byte(s) left in the chunk"
        )
    if head & 1:
        return _read_columns(
            data, pos, nrecords, room, strings, table, defaults, gid, torus
        )
    return _read_rows(
        data, pos, nrecords, strings, table, defaults, gid, torus
    )


class LeafReader:
    """The inverse of :class:`LeafWriter`: reads the stats table at
    ``data[pos]`` (``pos`` is then the position after it) and decodes
    leaf blocks against it."""

    __slots__ = ("strings", "pos", "_table", "_defaults")

    def __init__(self, data: bytes, pos: int, strings: list[str]) -> None:
        room = len(data) - pos
        nblocks, pos = _uvarint(data, pos)
        if nblocks * 10 > room:  # form 2: two varints and a double
            raise TraceFormatError(
                f"stats table declares {nblocks} block(s) with {room} "
                f"byte(s) left in the chunk"
            )
        # Slot tuples ``(count, mean, m2, minimum, maximum, bins)``:
        # every record's stats slots are filled from one (bins copied),
        # so loaded records share no mutable state.
        table = []
        forms = set()
        for _ in range(nblocks):
            form, pos = _uvarint(data, pos)
            count, pos = _uvarint(data, pos)
            forms.add(form)
            if form == _FORM_ONE:
                value, = _unpack_double(data, pos)
                pos += 8
                table.append(
                    StatsEntry(count, value, 0.0, value, value, None)
                )
                continue
            if form > _FORM_ONE:
                raise TraceFormatError(f"stats block of unknown form {form}")
            doubles = _unpack_4d(data, pos)
            pos += 32
            bins = None
            if form == _FORM_HIST:
                bins = [0] * _NBINS
                nonzero, pos = _uvarint(data, pos)
                for _ in range(nonzero):
                    i, pos = _uvarint(data, pos)
                    bins[i], pos = _uvarint(data, pos)
            table.append(
                StatsEntry(count, *doubles, bins)
            )
        if _FORM_HIST in forms and len(forms) > 1:
            # A trace has one timing mode: a histogram block beside a
            # mean/std one (of either form) is damage, not a trace.
            raise TraceFormatError(
                "stats table mixes histogram and mean/std blocks"
            )
        self.strings = strings
        self.pos = pos
        self._table = table
        self._defaults: dict[str | None, list] = {}

    def leaf(
        self, data: bytes, pos: int, op: str | None, gid: int, torus=None
    ) -> tuple[LeafColumns, int]:
        """The leaf block at ``data[pos]`` of vertex ``gid``, whose own
        op is ``op`` and torus ``torus``: ``(columns, position
        after)``."""
        defaults = self._defaults.get(op)
        if defaults is None:
            strings = self.strings
            defaults = self._defaults[op] = _leaf_defaults(
                strings.index(op) if op in strings else len(strings)
            )
        return _read_leaf(
            data, pos, self.strings, self._table, defaults, gid, torus
        )


# ---------------------------------------------------------------------------
# Body encoding (the bytes inside the framed sections).


def _write_topology(
    w: ByteWriter, vertices, strings: dict[str, int]
) -> None:
    for v in vertices:
        w.u(_KIND_CODE[v.kind])
        if v.kind == CALL:
            w.u(strings[v.op] if v.op is not None else len(strings))
            w.u(strings[v.name] if v.name is not None else len(strings))
        elif v.kind == BRANCH:
            w.u(v.branch_path if v.branch_path is not None else 0)
            # Replay groups consecutive same-ast branch children;
            # without the ast id, two adjacent sibling branches that
            # took different paths are indistinguishable from one
            # two-path group.
            w.z(v.ast_id if v.ast_id is not None else -1)
        w.u(len(v.children))


def _blank_vertex(gid: int, kind: str) -> MergedVertex:
    """A payload-free vertex built without a CTT template."""
    v = MergedVertex.__new__(MergedVertex)
    v.gid = gid
    v.kind = kind
    v.ast_id = v.name = v.op = v.branch_path = v.torus = None
    v.children = []
    v.groups = []
    return v


def _read_topology_vertex(r: ByteReader, strings: list[str]) -> MergedVertex:
    kind = _CODE_KIND[r.u()]
    v = _blank_vertex(-1, kind)
    if kind == CALL:
        op_idx = r.u()
        name_idx = r.u()
        v.op = strings[op_idx] if op_idx < len(strings) else None
        v.name = strings[name_idx] if name_idx < len(strings) else None
    elif kind == BRANCH:
        v.branch_path = r.u()
        ast = r.z()
        v.ast_id = None if ast == -1 else ast
    nchildren = r.u()
    v.children = [
        _read_topology_vertex(r, strings) for _ in range(nchildren)
    ]
    return v


def _write_vertex_payload(w: ByteWriter, v, leaves: LeafWriter) -> None:
    # Groups are written in canonical order (by lowest member rank —
    # member sets are disjoint) so the bytes do not depend on the merge
    # schedule that produced the tree.
    groups = v.sorted_groups()
    w.u(len(groups))
    if v.torus is not None and groups:
        # A rank set never declares 0 items: this 0 says a torus follows.
        w.u(0)
        w.u(v.torus[0])
        w.u(v.torus[1])
    for group in groups:
        items = leaves.nest(group.rank_sequence().terms)
        w.u(len(items))
        _write_items(w, items)
        if v.kind == LOOP:
            _write_seq(w, group.counts)
        elif v.kind == BRANCH:
            _write_seq(w, group.visits)
        elif v.kind == CALL:
            leaves.leaf(w, v.op, group.records)


def _read_vertex_payload(
    data: bytes, pos: int, v: MergedVertex, nranks: int,
    leaves: LeafReader, rank_sets: dict, job: int | None = None,
) -> int:
    """Decode one vertex's groups from ``data[pos:]`` into ``v``;
    returns the position after them.  ``leaves`` holds the chunk's
    stats table, ``rank_sets`` the rank sets parsed so far
    (:func:`_read_ranks`); ``job`` is a v9 file's job size (``None``
    before v9, which has no torus)."""
    kind = v.kind
    groups = v.groups
    ngroups, pos = _uvarint(data, pos)
    torus = None
    if ngroups and job is not None and kind == CALL and data[pos] == 0:
        s, pos = _uvarint(data, pos + 1)
        m, pos = _uvarint(data, pos)
        if s < 1 or m < 2 or job < 1 or job % (s * m):
            raise TraceFormatError(
                f"vertex {v.gid}: torus stride {s} and extent {m} need "
                f"s >= 1, m >= 2 and s·m dividing the job size {job}"
            )
        torus = v.torus = (s, m)
    for _ in range(ngroups):
        # Groups at a vertex are disjoint, so none outnumbers the job.
        ranks, pos = _read_ranks(data, pos, nranks, v.gid, rank_sets)
        counts = visits = block = None
        if kind == CALL:
            block, pos = leaves.leaf(data, pos, v.op, v.gid, torus)
        elif kind == LOOP:
            counts, pos = _read_seq(data, pos)
        elif kind == BRANCH:
            visits, pos = _read_seq(data, pos)
        groups.append(Group(ranks, counts, visits, block=block))
    return pos


# ---------------------------------------------------------------------------
# Section framing.  The server's session store and the budget spill store
# build their own crash-safe containers from these two.


def write_section(w: ByteWriter, kind: int, payload: bytes) -> None:
    hdr = ByteWriter()
    hdr.u(kind)
    hdr.u(len(payload))
    framed = hdr.bytes()
    w.raw(framed)
    w.raw(payload)
    w.raw(struct.pack("<I", zlib.crc32(framed + payload) & 0xFFFFFFFF))


def read_sections(
    data: bytes, pos: int, salvage: bool
) -> tuple[list[tuple[int, bytes]], bool, str | None]:
    """Parse the framed sections starting at ``pos``.  Returns
    ``(sections, complete, error)``; in salvage mode a checksum failure
    or truncation stops the scan instead of raising, keeping the valid
    prefix."""
    sections: list[tuple[int, bytes]] = []
    end_seen = False
    error: str | None = None
    n = len(data)
    while pos < n:
        try:
            sr = ByteReader(data, pos)
            kind = sr.u()
            length = sr.u()
            payload_end = sr.pos + length
            crc_end = payload_end + 4
            if crc_end > n:
                raise TraceFormatError(
                    f"truncated section at byte {pos} "
                    f"(needs {crc_end - n} more byte(s))"
                )
            stored = struct.unpack("<I", data[payload_end:crc_end])[0]
            if zlib.crc32(data[pos:payload_end]) & 0xFFFFFFFF != stored:
                raise TraceFormatError(
                    f"section checksum mismatch at byte {pos}"
                )
            payload = data[sr.pos : payload_end]
        except TraceFormatError as exc:
            if salvage:
                error = str(exc)
                break
            raise
        sections.append((kind, payload))
        pos = crc_end
        if kind == _SEC_END:
            end_seen = True
            break
    if not end_seen:
        msg = error or "missing end-of-trace section"
        if not salvage:
            raise TraceFormatError(f"truncated trace: {msg}")
        return sections, False, msg
    if pos != n and not salvage:
        raise TraceFormatError(f"{n - pos} trailing byte(s) after end section")
    return sections, True, None


# ---------------------------------------------------------------------------


#: Nominal per-event cost of an uncompressed binary trace record (op code
#: plus ~10 integer fields) — the denominator of the ``ratio_vs_raw``
#: gauge.  A fixed constant so the ratio is comparable across runs; the
#: text-based RawTraceSink baseline averages slightly more per event.
RAW_EVENT_BYTES = 48


def dumps(
    merged: MergedCTT, gzip: bool = False, chunk_bytes: int = _CHUNK_BYTES
) -> bytes:
    """Serialize a merged CTT; ``gzip=True`` is the +Gzip variant.

    ``chunk_bytes`` sets the payload-section granularity (smaller chunks
    salvage more of a truncated file at a few bytes/chunk framing cost);
    the default suits production traces, tests shrink it to exercise
    multi-chunk salvage on small trees.
    """
    with obs.span("serialize.dumps"):
        return _dumps(merged, gzip, chunk_bytes)


def _dumps(merged: MergedCTT, gzip: bool, chunk_bytes: int) -> bytes:
    registry = obs.active()
    vertices = list(merged.root.preorder())
    # String table: op names and leaf names.  Only CALL vertices ever
    # reference the table, so only their strings enter it — this keeps
    # ``dumps(loads(x)) == x`` (a root named "main" has nowhere to be
    # written, so it must not occupy a slot either).
    strings: dict[str, int] = {}
    for v in vertices:
        if v.kind != CALL:
            continue
        for s in (v.op, v.name):
            if s is not None and s not in strings:
                strings[s] = len(strings)
    hw = ByteWriter()
    hw.u(merged.nranks_merged)
    hw.u(len(strings))
    for text in strings:  # dict preserves insertion order
        hw.s(text)
    # The job size, when it is more than the ranks merged (a rank was
    # quarantined): what the merged count does not say.
    job = merged.rank_span()
    if job > merged.nranks_merged:
        hw.u(job - merged.nranks_merged)
    tw = ByteWriter()
    _write_topology(tw, vertices, strings)
    # Payload, pre-order, chunked so a truncated file salvages to the
    # longest checksum-valid prefix of vertices instead of losing the
    # whole payload.  Each chunk opens with its own stats table, so it
    # decodes with nothing but the header and topology sections.
    chunks: list[bytes] = []
    table_blocks = table_bytes = 0
    cw = ByteWriter()
    leaves = LeafWriter(strings)
    first = 0
    count = 0
    for v in vertices:
        _write_vertex_payload(cw, v, leaves)
        count += 1
        last = first + count == len(vertices)
        if last or cw.size() + leaves.blocks.size() >= chunk_bytes:
            pw = ByteWriter()
            pw.u(first)
            pw.u(count)
            covered = pw.size()
            leaves.table(pw)
            table_blocks += len(leaves.index)
            table_bytes += pw.size() - covered
            pw.raw(cw.bytes())
            chunks.append(pw.bytes())
            first += count
            count = 0
            cw = ByteWriter()
            leaves = LeafWriter(strings)
    w = ByteWriter()
    w.raw(_MAGIC)
    w.u(_VERSION)
    write_section(w, _SEC_HEADER, hw.bytes())
    header_bytes = w.size()
    write_section(w, _SEC_TOPOLOGY, tw.bytes())
    topology_bytes = w.size() - header_bytes
    for chunk in chunks:
        write_section(w, _SEC_PAYLOAD, chunk)
    ew = ByteWriter()
    ew.u(2 + len(chunks))  # sections preceding END
    ew.u(len(vertices))
    write_section(w, _SEC_END, ew.bytes())
    data = w.bytes()
    if registry is not None:
        _publish_dump_metrics(
            registry, vertices, header_bytes, topology_bytes, len(data),
            table_bytes, table_blocks,
        )
    if gzip:
        packed = _gzip.compress(data, compresslevel=6)
        if registry is not None:
            registry.counter_add("serialize.bytes.gzip", len(packed))
            registry.gauge_set("serialize.gzip_ratio", len(data) / len(packed))
        return packed
    return data


def _publish_dump_metrics(
    registry, vertices, header_bytes, topology_bytes, total,
    table_bytes, table_blocks,
) -> None:
    """Section byte counts, what the stats tables hold against what the
    records reference, plus the compression ratio vs. a nominal raw
    per-event trace — computed only when observability is on (one extra
    walk over the groups, outside any hot path)."""
    events = nrecords = 0
    for v in vertices:
        if v.kind != CALL:
            continue
        for group in v.groups:
            records = group.records
            if records:
                nrecords += len(records)
                per_rank = sum(rec.length for rec in records)
                events += per_rank * len(group.ranks)
    registry.counter_add("serialize.bytes.header", header_bytes)
    registry.counter_add("serialize.bytes.topology", topology_bytes)
    registry.counter_add(
        "serialize.bytes.payload", total - header_bytes - topology_bytes
    )
    # Part of the payload bytes, not a fourth summand of the total.
    registry.counter_add("serialize.bytes.stats_table", table_bytes)
    registry.counter_add("serialize.bytes.total", total)
    registry.counter_add("serialize.stats_blocks", 2 * nrecords)
    registry.counter_add("serialize.stats_blocks_distinct", table_blocks)
    registry.counter_add("serialize.events", events)
    if total:
        registry.gauge_set(
            "serialize.ratio_vs_raw", events * RAW_EVENT_BYTES / total
        )


def loads(data: bytes, salvage: bool = False) -> MergedCTT:
    """Inverse of :func:`dumps` (auto-detects gzip).

    Corrupt input raises :class:`~repro.core.errors.TraceFormatError`
    (a :class:`ValueError` subclass for one release) — never an
    arbitrary internal exception.  With ``salvage=True`` a truncated or
    tail-corrupted file loads as the longest checksum-valid prefix:
    the returned tree carries ``salvage_info`` describing what was
    recovered; the header and topology sections must survive or
    salvage, too, fails.
    """
    rank_sets: dict[bytes, list] = {}
    try:
        merged = _loads(data, salvage, rank_sets)
    except TraceFormatError:
        raise
    except Exception as exc:  # truncated varints, bad indices, bad UTF-8, zlib noise
        raise TraceFormatError(f"corrupt CYPRESS trace file: {exc}") from exc
    registry = obs.active()
    if registry is not None:  # counted after the fact
        vertices = merged.vertices()
        registry.counter_add("serialize.leaf_blocks", sum(
            len(v.groups) for v in vertices if v.kind == CALL
        ))
        registry.counter_add("serialize.rank_sets", sum(
            len(v.groups) for v in vertices
        ))
        registry.counter_add("serialize.rank_sets_parsed", sum(
            map(len, rank_sets.values())
        ))
    return merged


def _loads(data: bytes, salvage: bool, rank_sets: dict) -> MergedCTT:
    if data[:2] == b"\x1f\x8b":
        data = _gunzip(data, salvage)
    if salvage and _torn_in_container_header(data):
        return _empty_salvage(len(data))
    if data[:4] != _MAGIC:
        raise TraceFormatError("not a CYPRESS trace file")
    r = ByteReader(data)
    r.raw(4)
    version = r.u()
    if version not in _READABLE:
        raise TraceFormatError(f"unsupported trace version {version}")
    sections, complete, error = read_sections(data, r.pos, salvage)
    return _assemble(sections, complete, error, salvage, rank_sets, version)


def _assemble(
    sections: list[tuple[int, bytes]],
    complete: bool,
    error: str | None,
    salvage: bool,
    rank_sets: dict,
    version: int = _VERSION,
) -> MergedCTT:
    if not sections or sections[0][0] != _SEC_HEADER:
        raise TraceFormatError(
            "header section unrecoverable" if salvage
            else "missing header section"
        )
    if len(sections) < 2 or sections[1][0] != _SEC_TOPOLOGY:
        raise TraceFormatError(
            "topology section unrecoverable" if salvage
            else "missing topology section"
        )
    header = sections[0][1]
    hr = ByteReader(header)
    nranks = hr.u()
    strings = [hr.s() for _ in range(hr.u())]
    # v9: the job size, when it is more than the ranks merged.
    job = None if version < 9 else nranks
    if hr.pos < len(header):
        extra = 0 if job is None else hr.u()
        if not extra or hr.pos != len(header):
            raise TraceFormatError(
                "header: bytes after the string table that are not a job "
                "size above the ranks merged"
            )
        job += extra
    tr = ByteReader(sections[1][1])
    root = _read_topology_vertex(tr, strings)
    vertices = list(root.preorder())
    for gid, v in enumerate(vertices):
        v.gid = gid
    covered = 0
    declared_sections = declared_vertices = None
    for kind, payload in sections[2:]:
        if kind == _SEC_END:
            er = ByteReader(payload)
            declared_sections = er.u()
            declared_vertices = er.u()
            break
        if kind != _SEC_PAYLOAD:
            raise TraceFormatError(f"unknown section kind {kind}")
        pr = ByteReader(payload)
        chunk_first = pr.u()
        chunk_count = pr.u()
        if chunk_first != covered or chunk_first + chunk_count > len(vertices):
            raise TraceFormatError(
                f"payload chunk covers vertices {chunk_first}.."
                f"{chunk_first + chunk_count} out of order"
            )
        covered = chunk_first + chunk_count
        v = None
        try:
            leaves = LeafReader(payload, pr.pos, strings)
            pos = leaves.pos
            for v in vertices[chunk_first:covered]:
                pos = _read_vertex_payload(
                    payload, pos, v, nranks if job is None else job, leaves,
                    rank_sets, job,
                )
        except (IndexError, struct.error):
            # Ran off the chunk, or named a string or histogram bin
            # that does not exist.
            where = "its stats table" if v is None else f"vertex {v.gid}"
            raise TraceFormatError(
                f"payload chunk of vertices {chunk_first}..{covered} is "
                f"truncated or indexes out of range (at {where})"
            ) from None
    if not salvage:
        if declared_sections != len(sections) - 1:
            raise TraceFormatError(
                f"end section declares {declared_sections} section(s), "
                f"found {len(sections) - 1}"
            )
        if declared_vertices != len(vertices) or covered != len(vertices):
            raise TraceFormatError(
                f"payload covers {covered}/{len(vertices)} vertices"
            )
    merged = MergedCTT(root, nranks)
    merged._vertices = vertices
    merged.loaded = True
    merged.job_size = job
    if salvage:
        merged.salvage_info = {
            "complete": complete and covered == len(vertices),
            "sections_recovered": len(sections),
            "vertices_total": len(vertices),
            "vertices_with_payload": covered,
            "error": error,
        }
    return merged


def _torn_in_container_header(data: bytes) -> bool:
    """Whether ``data`` is a trace torn at or before the end of the
    5-byte container header (magic + version) — zero sections ever made
    it to disk.  Anything longer reached the framed-section region and
    takes the normal per-section salvage path (where a torn *header
    section* stays fatal); anything that is not a prefix of a real
    trace was never a trace and stays fatal too."""
    if len(data) < 4:
        return data == _MAGIC[: len(data)]
    if data[:4] != _MAGIC:
        return False
    if len(data) == 4:
        return True
    return len(data) == 5 and data[4] in _READABLE


def _empty_salvage(nbytes: int) -> MergedCTT:
    """The clean "nothing survived" salvage result: an empty tree whose
    ``salvage_info`` records that the file tore inside the container
    header, so callers can report recovery stats without special-casing
    the degenerate truncations (0-byte files, torn first write)."""
    merged = MergedCTT(_blank_vertex(0, ROOT), 0)
    merged.salvage_info = {
        "complete": False,
        "sections_recovered": 0,
        "vertices_total": 0,
        "vertices_with_payload": 0,
        "error": f"truncated inside the container header "
                 f"({nbytes} byte(s)): nothing recoverable",
    }
    return merged


def _gunzip(data: bytes, salvage: bool) -> bytes:
    if not salvage:
        try:
            return _gzip.decompress(data)
        except Exception as exc:
            raise TraceFormatError(f"corrupt gzip container: {exc}") from exc
    # Salvage: feed the stream chunkwise and keep whatever inflates
    # cleanly before the corruption/truncation point.
    d = zlib.decompressobj(47)  # gzip/zlib header autodetect
    out = bytearray()
    for i in range(0, len(data), 4096):
        try:
            out += d.decompress(data[i : i + 4096])
        except zlib.error:
            break
    if not out:
        raise TraceFormatError("gzip container unrecoverable")
    return bytes(out)


def atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data``, durably or not at all: the bytes
    land in ``path + ".tmp"``, are fsynced, and then ``os.replace`` the
    destination — a crash leaves what was at ``path`` before (or
    nothing), never a torn or empty file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save(merged: MergedCTT, path: str, gzip: bool = False) -> int:
    """Write to ``path`` atomically (:func:`atomic_write`: an
    interrupted save leaves any existing trace at ``path`` untouched);
    returns the byte count."""
    data = dumps(merged, gzip=gzip)
    atomic_write(path, data)
    return len(data)


def load(path: str, salvage: bool = False) -> MergedCTT:
    with open(path, "rb") as fh:
        return loads(fh.read(), salvage=salvage)
