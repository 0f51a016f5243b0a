"""Compressed communication records stored at CTT leaf vertices.

A :class:`CompressedRecord` is one distinct parameter set observed at a
leaf, together with

* the set of *occurrence indices* (which visits of this leaf used these
  parameters) as a stride-compressed :class:`IntSequence`;
* timing statistics for the call duration; and
* timing statistics for the *pre-gap* — the computation time between the
  end of the previous MPI event on the rank and the start of this one.
  The pre-gap is what the SIM-MPI replay engine uses as the sequential
  computation time between communication operations (paper §V).

The record key contains every parameter except time (paper §IV-A), with
peers in relative encoding and raw request handles replaced by the GIDs of
the vertices that created them (paper Fig. 12).

Records are ``__slots__`` classes: one is touched per MPI event on the
tracer's hot path, whose repeated-event commit lives in line in
:meth:`repro.core.intra.IntraProcessCompressor._walk`;
:meth:`CompressedRecord.first` inlines a first occurrence the same way.

:func:`event_key` builds a record's key from a traced event, and
:func:`key_params` turns a key back into the walk's parameter tuple —
the two directions of one layout, kept together here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .ranks import decode_peer, encode_peer
from .sequences import IntSequence
from .timing import MEANSTD, TimeStats

_new = object.__new__

# key layout: (op, peer_enc, peer2_enc, tag, tag2, nbytes, nbytes2,
#              comm, root, wildcard, req_gids, result_comm)
RecordKey = tuple


@dataclass(slots=True)
class CompressedRecord:
    key: RecordKey
    occurrences: IntSequence = field(default_factory=IntSequence)
    duration: TimeStats = field(default_factory=TimeStats)
    pre_gap: TimeStats = field(default_factory=TimeStats)
    pending: bool = False  # wildcard receive awaiting source resolution

    @classmethod
    def first(
        cls,
        key: RecordKey,
        index: int,
        duration_us: float,
        gap_us: float,
        mode: str = MEANSTD,
        pending: bool = False,
    ) -> "CompressedRecord":
        """A record at its first occurrence, built in one step with its
        contents known: bit-identical to an empty record in timing
        ``mode`` followed by ``add_occurrence(index, duration_us,
        gap_us)``.  What a first-seen parameter set costs — on wide-rank
        traces that is nearly every event — so it inlines the meanstd
        case (:meth:`TimeStats.first` is the reference) and writes the
        slots without going through the dataclass ``__init__`` chain.
        ``mode`` is trusted."""
        rec = _new(cls)
        rec.key = key
        rec.occurrences = occ = _new(IntSequence)
        occ.terms = [(index, 1, 0)]
        occ.length = 1
        if mode == MEANSTD:
            rec.duration = stats = _new(TimeStats)
            stats.mode = mode
            stats.count = 1
            stats.mean = 0.0 + duration_us
            stats.m2 = 0.0
            stats.minimum = stats.maximum = duration_us
            stats.bins = None
            rec.pre_gap = stats = _new(TimeStats)
            stats.mode = mode
            stats.count = 1
            stats.mean = 0.0 + gap_us
            stats.m2 = 0.0
            stats.minimum = stats.maximum = gap_us
            stats.bins = None
        else:
            rec.duration = TimeStats.first(mode, duration_us)
            rec.pre_gap = TimeStats.first(mode, gap_us)
        rec.pending = pending
        return rec

    @property
    def count(self) -> int:
        return len(self.occurrences)

    @property
    def op(self) -> str:
        return self.key[0]

    def add_occurrence(self, index: int, duration_us: float, gap_us: float) -> None:
        """One more occurrence.  The walk commits a repeated event in
        line with the same operations; this is the bounded window's."""
        self.occurrences.append(index)
        self.duration.add(duration_us)
        self.pre_gap.add(gap_us)

    def merge_from(self, other: "CompressedRecord") -> None:
        """Fold another record with the same key into this one (intra-rank
        deferred-wildcard resolution path).  Occurrence indices are merged
        in sorted order — a late-resolving wildcard may carry an *earlier*
        visit index than occurrences already merged, and replay cursors
        require monotone sequences."""
        assert self.key == other.key
        mine = self.occurrences.to_list()
        theirs = other.occurrences.to_list()
        if not mine or not theirs or mine[-1] < theirs[0]:
            self.occurrences.extend(theirs)
        else:
            merged = sorted(mine + theirs)
            self.occurrences = IntSequence.from_values(merged)
        self.duration.merge(other.duration)
        self.pre_gap.merge(other.pre_gap)

    def copy(self) -> "CompressedRecord":
        """An independent copy, filled slot by slot as :meth:`first`
        does (the merge copies every record of a group it does not own)."""
        rec = _new(CompressedRecord)
        rec.key = self.key
        rec.occurrences = occ = _new(IntSequence)
        occ.terms = self.occurrences.terms.copy()
        occ.length = self.occurrences.length
        rec.duration = self.duration.copy()
        rec.pre_gap = self.pre_gap.copy()
        rec.pending = self.pending
        return rec


class LeafView(NamedTuple):
    """The records of one leaf group as the columns the queries reduce
    (:mod:`repro.query.engine`), a value a record — transposed from the
    records here, or handed over as decoded by a loaded tree's leaf
    block (``serialize.LeafColumns.view``).  The lists may be the
    owner's own: read, never written."""

    ops: str | list[str]  # the one op of every record, or one each
    lengths: list[int]  # occurrences (per member rank)
    nbytes: list[int]
    nbytes2: list[int]
    durations: list  # ``.mean`` / ``.count`` holders (group-wide)
    gaps: list
    peers: list  # encoded destinations (``key[1]``)

    @classmethod
    def of(cls, ops, *columns) -> "LeafView":
        """The view of ``columns`` under ``ops`` — one name, or one a
        record, which become the one where they all agree."""
        if not isinstance(ops, str) and ops.count(ops[0]) == len(ops):
            ops = ops[0]
        return cls(ops, *columns)

    @classmethod
    def of_records(cls, records: list[CompressedRecord]) -> "LeafView":
        keys = [rec.key for rec in records]
        return cls.of(
            [key[0] for key in keys],
            [rec.occurrences.length for rec in records],
            [key[5] for key in keys], [key[6] for key in keys],
            [rec.duration for rec in records],
            [rec.pre_gap for rec in records],
            [key[1] for key in keys],
        )

    def by_op(self) -> list[tuple[str, "LeafView"]]:
        """``(op, the view of its records)``: this one, but for a leaf
        that names more than one op."""
        ops = self.ops
        if isinstance(ops, str):
            return [(ops, self)]
        rows: dict[str, list[int]] = {}
        for at, op in enumerate(ops):
            rows.setdefault(op, []).append(at)
        return [
            (op, LeafView(op, *[[col[at] for at in ats] for col in self[1:]]))
            for op, ats in rows.items()
        ]


def event_key(
    ev,
    rank: int,
    relative: bool,
    req_gids: tuple[int, ...],
    peer: int | None = None,
    nbytes: int | None = None,
) -> RecordKey:
    """The key of the record a traced event commits to on ``rank``: the
    layout of :data:`RecordKey`, peers encoded (``relative``), ``reqs``
    replaced by ``req_gids``.  ``peer``/``nbytes`` override the event's
    when a wildcard receive resolves — the resolved record must have
    exactly the key shape of the eager path (``result_comm`` included),
    or it could never match one."""
    return (
        ev.op,
        encode_peer(ev.peer if peer is None else peer, rank, relative),
        encode_peer(ev.peer2, rank, relative),
        ev.tag,
        ev.tag2,
        ev.nbytes if nbytes is None else nbytes,
        ev.nbytes2,
        ev.comm,
        ev.root,
        ev.wildcard,
        req_gids,
        ev.result_comm,
    )


def key_params(key: RecordKey, rank: int) -> tuple:
    """The parameter tuple the walk probes a leaf's ``params_index``
    with, for a record ``key`` built on ``rank`` — :func:`event_key`
    read backwards: ``(peer, nbytes, tag, req_gids, peer2, tag2,
    nbytes2, comm, root, wildcard, result_comm)``, the op left to the
    leaf.  :func:`~repro.core.ranks.decode_peer` is the exact inverse
    of ``encode_peer`` for a fixed rank, so the tuple is the one the
    event itself gave."""
    return (
        decode_peer(key[1], rank),
        key[5],
        key[3],
        key[10],
        decode_peer(key[2], rank),
        key[4],
        key[6],
        key[7],
        key[8],
        key[9],
        key[11],
    )
