"""Binary serialization of merged compressed traces.

CYPRESS writes its final job-wide trace as a compact binary file
(optionally gzip-compressed, the paper's "CYPRESS+Gzip" variant).  The
format is a faithful size-accounting vehicle for the trace-size figures:
varint-coded integers, zigzag for signed values, an interned string table
for op names, stride terms for every integer sequence, and sparse
histogram bins.

Container layout (version 6, crash-safe — docs/INTERNALS.md §7)::

    magic "CYTR" | version | sections...

    section := kind | nbytes | payload | crc32(kind..payload)

    kind 1 HEADER   : nranks | string table
    kind 2 TOPOLOGY : tree (pre-order): kind, [op/name idx],
                      [branch_path, branch ast id], nchildren
    kind 3 PAYLOAD  : first vertex index | nvertices | per vertex,
                      ngroups, then each group:
                      rankset terms | payload (counts / visits / records)
                      (chunked ~64 KiB so truncation loses one chunk,
                      not the whole payload)
    kind 0 END      : number of preceding sections | total vertex count

Every section carries a CRC32 over its own framing and payload, and the
END marker pins the section count — so a file fails loudly
(:class:`~repro.core.errors.TraceFormatError`) on any flipped bit or
missing tail, while ``loads(..., salvage=True)`` recovers the longest
checksum-valid prefix of a truncated file (vertices whose payload chunk
was lost simply have no groups).  Older versions are refused.
:func:`save` is atomic: temp file + fsync + ``os.replace``, so an
interrupted save never clobbers an existing trace.

Round-trips: ``loads(dumps(m))`` reconstructs a replayable MergedCTT.
"""

from __future__ import annotations

import gzip as _gzip
import os
import struct
import zlib

from repro import obs
from repro.static.cst import BRANCH, CALL, LOOP, ROOT

from .errors import TraceFormatError
from .inter import Group, InternTable, MergedCTT, MergedVertex
from .ranks import ABS, REL
from .records import CompressedRecord
from .sequences import IntSequence
from .timing import _NBINS, HIST, MEANSTD, TimeStats

_MAGIC = b"CYTR"
_VERSION = 6

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
_unpack_4d = struct.Struct("<4d").unpack_from  # mean, m2, minimum, maximum
_new = object.__new__


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
        """Signed varint (zigzag)."""
        self.u((value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1)

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

    def eof(self) -> bool:
        return self.pos >= len(self._data)


# ---------------------------------------------------------------------------


def _write_seq(w: ByteWriter, seq: IntSequence) -> None:
    w.u(len(seq.terms))
    for start, count, stride in seq.terms:
        w.z(start)
        w.u(count)
        w.z(stride)


def _read_seq(data: bytes, pos: int) -> tuple[IntSequence, int]:
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


def _write_stats(w: ByteWriter, st: TimeStats) -> None:
    w.u(0 if st.mode == MEANSTD else 1)
    w.u(st.count)
    w.f(st.mean)
    w.f(st.m2)
    w.f(st.minimum if st.count else 0.0)
    w.f(st.maximum if st.count else 0.0)
    if st.mode == HIST:
        nonzero = [(i, b) for i, b in enumerate(st.bins) if b]
        w.u(len(nonzero))
        for i, b in nonzero:
            w.u(i)
            w.u(b)


def _read_stats(data: bytes, pos: int) -> tuple[TimeStats, int]:
    hist = data[pos]
    pos += 1
    if hist > 0x7F:
        hist, pos = _uvarint(data, pos - 1)
    count = data[pos]
    pos += 1
    if count > 0x7F:
        count, pos = _uvarint(data, pos - 1)
    st = _new(TimeStats)
    st.count = count
    st.mean, st.m2, st.minimum, st.maximum = _unpack_4d(data, pos)
    pos += 32
    if not hist:
        st.mode = MEANSTD
        st.bins = None
        return st, pos
    st.mode = HIST
    st.bins = bins = [0] * _NBINS
    nonzero, pos = _uvarint(data, pos)
    for _ in range(nonzero):
        i, pos = _uvarint(data, pos)
        bins[i], pos = _uvarint(data, pos)
    return st, pos


def _write_record(w: ByteWriter, rec: CompressedRecord, ops: dict[str, int]) -> None:
    (op, peer, peer2, tag, tag2, nbytes, nbytes2, comm, root, wc, gids,
     result_comm) = rec.key
    w.u(ops[op])
    for enc in (peer, peer2):
        w.u(0 if enc[0] == "abs" else 1)
        w.z(enc[1])
    w.z(tag)
    w.z(tag2)
    w.u(nbytes)
    w.u(nbytes2)
    w.u(comm)
    w.z(root)
    w.u(1 if wc else 0)
    w.u(len(gids))
    for gid in gids:
        w.z(gid)
    w.z(result_comm)
    _write_seq(w, rec.occurrences)
    _write_stats(w, rec.duration)
    _write_stats(w, rec.pre_gap)


def _read_record(
    data: bytes, pos: int, ops: list[str]
) -> tuple[CompressedRecord, int]:
    """The one record decoder (the container and the budget spill store
    share it): a single pass with the position in a local, one-byte
    varints read in line, objects filled slot by slot as
    :meth:`CompressedRecord.first` does."""
    # op, peer mode/value twice, tag, tag2, nbytes, nbytes2, comm, root,
    # wildcard flag, number of request gids: thirteen varints in a row.
    fields = []
    for _ in range(13):
        value = data[pos]
        pos += 1
        if value > 0x7F:
            value, pos = _uvarint(data, pos - 1)
        fields.append(value)
    op, m1, p1, m2, p2, tag, tag2, nbytes, nbytes2, comm, root, wc, ngids = fields
    gids = ()
    if ngids:
        gid_list = []
        for _ in range(ngids):
            gid, pos = _uvarint(data, pos)
            gid_list.append((gid >> 1) ^ -(gid & 1))
        gids = tuple(gid_list)
    result_comm = data[pos]
    pos += 1
    if result_comm > 0x7F:
        result_comm, pos = _uvarint(data, pos - 1)
    rec = _new(CompressedRecord)
    rec.key = (
        ops[op],
        (REL if m1 else ABS, (p1 >> 1) ^ -(p1 & 1)),
        (REL if m2 else ABS, (p2 >> 1) ^ -(p2 & 1)),
        (tag >> 1) ^ -(tag & 1), (tag2 >> 1) ^ -(tag2 & 1),
        nbytes, nbytes2, comm, (root >> 1) ^ -(root & 1), wc != 0,
        gids, (result_comm >> 1) ^ -(result_comm & 1),
    )
    rec.occurrences, pos = _read_seq(data, pos)
    rec.duration, pos = _read_stats(data, pos)
    rec.pre_gap, pos = _read_stats(data, pos)
    rec.pending = False
    return rec, pos


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
    v.ast_id = v.name = v.op = v.branch_path = None
    v.children = []
    v.groups = {}
    v._by_rank = None
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


def _write_vertex_payload(w: ByteWriter, v, strings: dict[str, int]) -> None:
    # Groups are written in canonical order (by lowest member rank —
    # member sets are disjoint) so the bytes do not depend on the merge
    # schedule that produced the tree.
    groups = v.sorted_groups()
    w.u(len(groups))
    for group in groups:
        _write_seq(w, group.rank_sequence())
        if v.kind == LOOP:
            _write_seq(w, group.counts)
        elif v.kind == BRANCH:
            _write_seq(w, group.visits)
        elif v.kind == CALL:
            w.u(len(group.records))
            for rec in group.records:
                _write_record(w, rec, strings)


def _read_vertex_payload(
    data: bytes,
    pos: int,
    v: MergedVertex,
    strings: list[str],
    interns: InternTable,
    nranks: int,
) -> int:
    """Decode one vertex's groups from ``data[pos:]`` into ``v``;
    returns the position after them."""
    kind = v.kind
    groups = v.groups
    ngroups, pos = _uvarint(data, pos)
    for _ in range(ngroups):
        rank_seq, pos = _read_seq(data, pos)
        # Groups at a vertex are disjoint, so none outnumbers the job.
        # Checked on the declared length, before any list exists: one
        # stride term can claim 10**11 ranks in six checksum-valid bytes.
        if rank_seq.length > nranks:
            raise TraceFormatError(
                f"vertex {v.gid}: a group declares {rank_seq.length} "
                f"member rank(s), the header {nranks}"
            )
        counts = visits = records = None
        if kind == CALL:
            nrecords, pos = _uvarint(data, pos)
            records = []
            parts = []
            for _ in range(nrecords):
                rec, pos = _read_record(data, pos, strings)
                records.append(rec)
                occ = rec.occurrences
                parts.append((rec.key, occ.length, tuple(occ.terms)))
            key = ("R", tuple(parts))
        elif kind == LOOP:
            counts, pos = _read_seq(data, pos)
            key = ("L", counts.length, tuple(counts.terms))
        elif kind == BRANCH:
            visits, pos = _read_seq(data, pos)
            key = ("B", visits.length, tuple(visits.terms))
        else:
            key = ()
        group = Group(
            signature=interns.intern(key), ranks=rank_seq.to_list(),
            counts=counts, visits=visits, records=records,
        )
        groups[group.signature] = group
    return pos


# ---------------------------------------------------------------------------
# Section framing.


def _write_section(w: ByteWriter, kind: int, payload: bytes) -> None:
    hdr = ByteWriter()
    hdr.u(kind)
    hdr.u(len(payload))
    framed = hdr.bytes()
    w.raw(framed)
    w.raw(payload)
    w.raw(struct.pack("<I", zlib.crc32(framed + payload) & 0xFFFFFFFF))


def _read_sections(
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


#: Public aliases of the section framing: the server's session store
#: (:mod:`repro.server.session`) and the budget spill store
#: (:mod:`repro.core.budget`) build their own crash-safe containers from
#: the same CRC-framed primitives.
write_section = _write_section
read_sections = _read_sections


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
    tw = ByteWriter()
    _write_topology(tw, vertices, strings)
    # Payload, pre-order, chunked so a truncated file salvages to the
    # longest checksum-valid prefix of vertices instead of losing the
    # whole payload.
    chunks: list[tuple[int, int, bytes]] = []
    cw = ByteWriter()
    first = 0
    count = 0
    for v in vertices:
        _write_vertex_payload(cw, v, strings)
        count += 1
        if cw.size() >= chunk_bytes:
            chunks.append((first, count, cw.bytes()))
            first += count
            count = 0
            cw = ByteWriter()
    if count:
        chunks.append((first, count, cw.bytes()))
    w = ByteWriter()
    w.raw(_MAGIC)
    w.u(_VERSION)
    _write_section(w, _SEC_HEADER, hw.bytes())
    header_bytes = w.size()
    _write_section(w, _SEC_TOPOLOGY, tw.bytes())
    topology_bytes = w.size() - header_bytes
    for chunk_first, chunk_count, chunk_payload in chunks:
        pw = ByteWriter()
        pw.u(chunk_first)
        pw.u(chunk_count)
        _write_section(w, _SEC_PAYLOAD, pw.bytes() + chunk_payload)
    ew = ByteWriter()
    ew.u(2 + len(chunks))  # sections preceding END
    ew.u(len(vertices))
    _write_section(w, _SEC_END, ew.bytes())
    data = w.bytes()
    if registry is not None:
        _publish_dump_metrics(
            registry, merged, vertices, header_bytes, topology_bytes, len(data)
        )
    if gzip:
        packed = _gzip.compress(data, compresslevel=6)
        if registry is not None:
            registry.counter_add("serialize.bytes.gzip", len(packed))
            registry.gauge_set("serialize.gzip_ratio", len(data) / len(packed))
        return packed
    return data


def _publish_dump_metrics(
    registry, merged, vertices, header_bytes, topology_bytes, total
) -> None:
    """Section byte counts plus the compression ratio vs. a nominal raw
    per-event trace — computed only when observability is on (one extra
    walk over the groups, outside any hot path)."""
    events = 0
    for v in vertices:
        if v.kind != CALL:
            continue
        for group in v.groups.values():
            records = group.records
            if records:
                per_rank = sum(rec.occurrences.length for rec in records)
                events += per_rank * len(group.ranks)
    registry.counter_add("serialize.bytes.header", header_bytes)
    registry.counter_add("serialize.bytes.topology", topology_bytes)
    registry.counter_add(
        "serialize.bytes.payload", total - header_bytes - topology_bytes
    )
    registry.counter_add("serialize.bytes.total", total)
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
    try:
        return _loads(data, salvage)
    except ValueError:
        raise
    except Exception as exc:  # truncated varints, bad indices, zlib noise
        raise TraceFormatError(f"corrupt CYPRESS trace file: {exc}") from exc


def _loads(data: bytes, salvage: bool) -> MergedCTT:
    if data[:2] == b"\x1f\x8b":
        data = _gunzip(data, salvage)
    if salvage and _torn_in_container_header(data):
        return _empty_salvage(len(data))
    if data[:4] != _MAGIC:
        raise TraceFormatError("not a CYPRESS trace file")
    r = ByteReader(data)
    r.raw(4)
    version = r.u()
    if version != _VERSION:
        raise TraceFormatError(f"unsupported trace version {version}")
    sections, complete, error = _read_sections(data, r.pos, salvage)
    return _assemble(sections, complete, error, salvage)


def _assemble(
    sections: list[tuple[int, bytes]],
    complete: bool,
    error: str | None,
    salvage: bool,
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
    hr = ByteReader(sections[0][1])
    nranks = hr.u()
    strings = [hr.s() for _ in range(hr.u())]
    tr = ByteReader(sections[1][1])
    root = _read_topology_vertex(tr, strings)
    vertices = list(root.preorder())
    for gid, v in enumerate(vertices):
        v.gid = gid
    interns = InternTable()
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
        pos = pr.pos
        covered = chunk_first + chunk_count
        try:
            for v in vertices[chunk_first:covered]:
                pos = _read_vertex_payload(
                    payload, pos, v, strings, interns, nranks
                )
        except (IndexError, struct.error):
            # Ran off the chunk, or named a string or histogram bin
            # that does not exist.
            raise TraceFormatError(
                f"payload chunk of vertices {chunk_first}..{covered} is "
                f"truncated or indexes out of range (at vertex {v.gid})"
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
    merged = MergedCTT(root, nranks, interns)
    merged._vertices = vertices
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
    return len(data) == 5 and data[4] == _VERSION


def _empty_salvage(nbytes: int) -> MergedCTT:
    """The clean "nothing survived" salvage result: an empty tree whose
    ``salvage_info`` records that the file tore inside the container
    header, so callers can report recovery stats without special-casing
    the degenerate truncations (0-byte files, torn first write)."""
    merged = MergedCTT(_blank_vertex(0, ROOT), 0, InternTable())
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


def save(merged: MergedCTT, path: str, gzip: bool = False) -> int:
    """Write to ``path`` atomically; returns the byte count.

    The bytes land in ``path + ".tmp"`` first, are fsynced, and then
    ``os.replace`` the destination — a crash mid-save leaves any
    existing trace at ``path`` untouched instead of truncated.
    """
    data = dumps(merged, gzip=gzip)
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
    return len(data)


def load(path: str, salvage: bool = False) -> MergedCTT:
    with open(path, "rb") as fh:
        return loads(fh.read(), salvage=salvage)
