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
tracer's hot path, and ``add_occurrence`` inlines the Welford update for
the default mean/std timing mode so the common repeated-event case costs
one occurrence append plus a handful of float ops — no per-event method
dispatch into :class:`TimeStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
        traces that is nearly every event — so, like ``add_occurrence``,
        it inlines the meanstd case (:meth:`TimeStats.first` is the
        reference) and writes the slots without going through the
        dataclass ``__init__`` chain.  ``mode`` is trusted."""
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
        # Inlined IntSequence.append fast cases (extend / absorb the last
        # stride term) — occurrence indices are near-monotone, so these
        # cover almost every event; the repair path falls back to
        # append(), which implements the identical semantics.
        occ = self.occurrences
        terms = occ.terms
        if terms:
            start, count, stride = terms[-1]
            if count == 1:
                terms[-1] = (start, 2, index - start)
                occ.length += 1
            elif index == start + count * stride:
                terms[-1] = (start, count + 1, stride)
                occ.length += 1
            else:
                occ.append(index)
        else:
            occ.append(index)
        # Inlined TimeStats.add for the meanstd mode (the default):
        # identical float operations in identical order, without two
        # method calls per event.  Histogram mode falls back to add().
        stats = self.duration
        if stats.bins is None:
            stats.count = n = stats.count + 1
            delta = duration_us - stats.mean
            stats.mean += delta / n
            stats.m2 += delta * (duration_us - stats.mean)
            if duration_us < stats.minimum:
                stats.minimum = duration_us
            if duration_us > stats.maximum:
                stats.maximum = duration_us
        else:
            stats.add(duration_us)
        stats = self.pre_gap
        if stats.bins is None:
            stats.count = n = stats.count + 1
            delta = gap_us - stats.mean
            stats.mean += delta / n
            stats.m2 += delta * (gap_us - stats.mean)
            if gap_us < stats.minimum:
                stats.minimum = gap_us
            if gap_us > stats.maximum:
                stats.maximum = gap_us
        else:
            stats.add(gap_us)

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

    def payload_equal(self, other: "CompressedRecord") -> bool:
        """Equality ignoring timing — the inter-process grouping test."""
        return self.key == other.key and self.occurrences == other.occurrences

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

    def approx_bytes(self) -> int:
        # Serialized estimate (container bytes):
        # op string + numeric params + sequences + two stat blocks
        key_bytes = len(self.key[0]) + 6 * (len(self.key) - 1)
        gid_bytes = 4 * len(self.key[10]) if len(self.key) > 10 else 0
        return (
            key_bytes
            + gid_bytes
            + self.occurrences.approx_bytes()
            + self.duration.approx_bytes()
            + self.pre_gap.approx_bytes()
        )

    def live_bytes(self) -> int:
        """Estimated live in-RAM footprint: the record, key tuple, and
        stats as boxed CPython objects rather than packed varints.  The
        key tuple is shared with the leaf's ``record_index``, so it is
        charged once, here."""
        # record object + key tuple (12 slots + op string + gid tuple)
        # + two TimeStats + occurrence terms as boxed 3-tuples
        return (
            200
            + 8 * len(self.key)
            + 3 * self.occurrences.approx_bytes()
            + 2 * 144
        )


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


def make_key(
    op: str,
    peer_enc,
    peer2_enc,
    tag: int,
    tag2: int,
    nbytes: int,
    nbytes2: int,
    comm: int,
    root: int,
    wildcard: bool,
    req_gids: tuple[int, ...],
    result_comm: int = -1,
) -> RecordKey:
    return (
        op, peer_enc, peer2_enc, tag, tag2, nbytes, nbytes2,
        comm, root, wildcard, req_gids, result_comm,
    )
