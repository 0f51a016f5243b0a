"""Binary serialization of the baselines' merged traces.

Gives ScalaTrace and ScalaTrace-2 the same compact varint encoding the
CYPRESS writer uses (:mod:`repro.core.serialize`) — stride terms, an
interned string table and, as there, one table of the distinct
timing-stats blocks that events name by index — so the trace-size
comparisons of Figs. 15/19 measure representation power, not encoder
quality.
"""

from __future__ import annotations

import gzip as _gzip
import struct

from repro.core.serialize import ByteWriter, _write_seq
from repro.core.sequences import IntSequence
from repro.core.timing import TimeStats

from .rsd import RSD, EventTerm, Term
from .scalatrace import MergedQueue
from .scalatrace2 import ElasticEvent, ElasticRSD, ETerm, ST2Merged


def _write_ranks(w: ByteWriter, ranks: list[int]) -> None:
    _write_seq(w, IntSequence.from_values(sorted(ranks)))


_pack_2d = struct.Struct("<2d").pack


class _Tables:
    """What a baseline trace interns while its body is written and
    emits ahead of it: op strings, and the distinct ``count | mean | m2``
    stats blocks in first-use order (keyed by their bytes)."""

    def __init__(self) -> None:
        self.ops: dict[str, int] = {}
        self.stats: dict[tuple, int] = {}
        self.blocks = ByteWriter()

    def op(self, text: str) -> int:
        return self.ops.setdefault(text, len(self.ops))

    def write_stats(self, w: ByteWriter, st: TimeStats) -> None:
        key = (st.count, _pack_2d(st.mean, st.m2))
        at = self.stats.get(key)
        if at is None:
            at = self.stats[key] = len(self.stats)
            self.blocks.u(st.count)
            self.blocks.raw(key[1])
        w.u(at)

    def dumps(self, body: ByteWriter, gzip: bool) -> bytes:
        w = ByteWriter()
        w.u(len(self.ops))
        for text in self.ops:
            w.s(text)
        w.u(len(self.stats))
        w.raw(self.blocks.bytes())
        w.raw(body.bytes())
        data = w.bytes()
        return _gzip.compress(data, 6) if gzip else data


def _write_sig(w: ByteWriter, sig: tuple, tables: _Tables) -> None:
    w.u(tables.op(sig[0]))
    for enc in (sig[1], sig[2]):
        if isinstance(enc, tuple):
            w.u(0 if enc[0] == "abs" else (1 if enc[0] == "rel" else 2))
            w.z(enc[1] if isinstance(enc[1], int) else 0)
        else:
            w.u(2)
            w.z(0)
    for value in sig[3:]:
        if isinstance(value, bool):
            w.u(1 if value else 0)
        elif isinstance(value, int):
            w.z(value)
        elif isinstance(value, str):
            w.u(tables.op(value))
        else:
            w.z(0)


def _write_term(w: ByteWriter, term: Term, tables: _Tables) -> None:
    if isinstance(term, EventTerm):
        w.u(0)
        _write_sig(w, term.sig, tables)
        tables.write_stats(w, term.duration)
        tables.write_stats(w, term.pre_gap)
    else:
        w.u(1)
        w.u(term.count)
        w.u(len(term.body))
        for t in term.body:
            _write_term(w, t, tables)


def scalatrace_dumps(merged: MergedQueue, gzip: bool = False) -> bytes:
    tables = _Tables()
    body = ByteWriter()
    body.u(len(merged))
    for slot in merged:
        body.u(len(slot.variants))
        for ranks, term in slot.variants:
            _write_ranks(body, ranks)
            _write_term(body, term, tables)
    return tables.dumps(body, gzip)


# ---------------------------------------------------------------------------


def _write_shape(w: ByteWriter, shape: tuple, tables: _Tables) -> None:
    # Shapes are nested tuples of ints/strings; encode generically.
    if isinstance(shape, tuple):
        w.u(0)
        w.u(len(shape))
        for item in shape:
            _write_shape(w, item, tables)
    elif isinstance(shape, str):
        w.u(1)
        w.u(tables.op(shape))
    elif isinstance(shape, bool):
        w.u(2)
        w.u(1 if shape else 0)
    elif isinstance(shape, int):
        w.u(3)
        w.z(shape)
    else:
        w.u(2)
        w.u(0)


def _write_eterm(w: ByteWriter, term: ETerm, tables: _Tables) -> None:
    if isinstance(term, ElasticEvent):
        w.u(0)
        _write_shape(w, term.shape, tables)
        _write_seq(w, term.peers)
        _write_seq(w, term.sizes)
        tables.write_stats(w, term.duration)
        tables.write_stats(w, term.pre_gap)
    else:
        assert isinstance(term, ElasticRSD)
        w.u(1)
        _write_seq(w, term.counts)
        w.u(len(term.body))
        for t in term.body:
            _write_eterm(w, t, tables)


def scalatrace2_dumps(merged: ST2Merged, gzip: bool = False) -> bytes:
    tables = _Tables()
    body = ByteWriter()
    body.u(len(merged.slots))
    body.u(1 if merged.lossy else 0)
    for slot in merged.slots:
        body.u(len(slot.variants))
        for ranks, term in slot.variants:
            _write_ranks(body, ranks)
            _write_eterm(body, term, tables)
    return tables.dumps(body, gzip)
