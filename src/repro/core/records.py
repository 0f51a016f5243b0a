"""Compressed communication records stored at CTT leaf vertices.

A :class:`CompressedRecord` is one distinct parameter set observed at a
leaf, together with

* the set of *occurrence indices* (which visits of this leaf used these
  parameters) as stride terms;
* timing statistics for the call duration; and
* timing statistics for the *pre-gap* — the computation time between the
  end of the previous MPI event on the rank and the start of this one.
  The pre-gap is what the SIM-MPI replay engine uses as the sequential
  computation time between communication operations (paper §V).

The record key contains every parameter except time (paper §IV-A), with
peers in relative encoding and raw request handles replaced by the GIDs of
the vertices that created them (paper Fig. 12).

A record is one ``__slots__`` object, since on wide-rank traces nearly
every event is the first of its parameter set on its rank: both stats
blocks are slots of the record, and its occurrence sequence keeps its
one term in the record until a second one opens a ``terms`` list.  The
walk commits a repeated event in line
(:meth:`repro.core.intra.IntraProcessCompressor._walk`).

:func:`event_key` builds a record's key from a traced event, and
:func:`key_params` turns a key back into the walk's parameter tuple —
the two directions of one layout, kept together here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .ranks import decode_peer, encode_peer
from .sequences import IntSequence, append_term
from .timing import MEANSTD, add_sample, first_bins

_new = object.__new__

# key layout: (op, peer_enc, peer2_enc, tag, tag2, nbytes, nbytes2,
#              comm, root, wildcard, req_gids, result_comm)
RecordKey = tuple


@dataclass(slots=True)
class CompressedRecord:
    """One parameter set at one leaf.

    Occurrences: while ``terms`` is ``None`` the sequence is the one
    stride term ``(start, length, stride)``; from the second term on
    ``terms`` lists every term, ``start`` and ``stride`` are 0, and
    ``length`` stays the number of occurrences (an empty record has
    ``terms == []``).  Each stats block is ``count``, ``mean``, ``m2``
    (Welford), ``min``, ``max`` and, in the histogram timing mode only,
    ``bins`` (``None`` in ``meanstd``)."""

    key: RecordKey
    pending: bool = False  # wildcard receive awaiting source resolution
    start: int = 0
    length: int = 0
    stride: int = 0
    terms: list | None = None
    dur_count: int = 0
    dur_mean: float = 0.0
    dur_m2: float = 0.0
    dur_min: float = math.inf
    dur_max: float = -math.inf
    dur_bins: list[int] | None = None
    gap_count: int = 0
    gap_mean: float = 0.0
    gap_m2: float = 0.0
    gap_min: float = math.inf
    gap_max: float = -math.inf
    gap_bins: list[int] | None = None

    def __post_init__(self) -> None:
        if self.terms is None and not self.length:
            self.terms = []  # no occurrence yet

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
        slots written directly: bit-identical to an empty record in
        timing ``mode`` followed by ``add_occurrence(index,
        duration_us, gap_us)`` (Welford at n = 1 is ``mean = 0.0 + us``,
        ``m2 = 0.0``, ``min = max = us`` for finite ``us``).  What a
        first-seen parameter set costs — on wide-rank traces that is
        nearly every event.  ``mode`` is trusted: it was checked where
        it entered (:class:`~repro.core.intra.CypressConfig`)."""
        rec = _new(cls)
        rec.key = key
        rec.pending = pending
        rec.start = index
        rec.length = 1
        rec.stride = 0
        rec.terms = None
        rec.dur_count = 1
        rec.dur_mean = 0.0 + duration_us
        rec.dur_m2 = 0.0
        rec.dur_min = rec.dur_max = duration_us
        rec.gap_count = 1
        rec.gap_mean = 0.0 + gap_us
        rec.gap_m2 = 0.0
        rec.gap_min = rec.gap_max = gap_us
        if mode == MEANSTD:
            rec.dur_bins = rec.gap_bins = None
        else:
            rec.dur_bins = first_bins(duration_us)
            rec.gap_bins = first_bins(gap_us)
        return rec

    @property
    def op(self) -> str:
        return self.key[0]

    def occurrences(self) -> IntSequence:
        """The occurrence indices as a sequence of their own (a copy,
        for readers off the commit path)."""
        terms = self.terms
        if terms is None:
            terms = [(self.start, self.length, self.stride)]
        return IntSequence(list(terms), self.length)

    def set_occurrences(self, seq: IntSequence) -> None:
        """Make ``seq`` the occurrence indices (its terms list is kept
        when it has other than one term)."""
        terms = seq.terms
        self.length = seq.length
        if len(terms) == 1:
            (self.start, _, self.stride), = terms
            self.terms = None
        else:
            self.start = self.stride = 0
            self.terms = terms

    def add_occurrence(self, index: int, duration_us: float, gap_us: float) -> None:
        """One more occurrence.  The walk commits a repeated event in
        line with the same operations; this is the bounded window's."""
        terms = self.terms
        n = self.length
        if terms is not None:
            if terms:
                append_term(terms, index)
            else:
                self.start = index
                self.terms = None
        elif n == 1:
            self.stride = index - self.start
        elif index != self.start + n * self.stride:
            self.terms = terms = [(self.start, n, self.stride)]
            self.start = self.stride = 0
            append_term(terms, index)
        self.length = n + 1
        self.add_times(duration_us, gap_us)

    def add_times(self, duration_us: float, gap_us: float) -> None:
        """One more sample in each stats block (:func:`add_sample`)."""
        (self.dur_count, self.dur_mean, self.dur_m2, self.dur_min,
         self.dur_max) = add_sample(
            self.dur_count, self.dur_mean, self.dur_m2, self.dur_min,
            self.dur_max, self.dur_bins, duration_us,
        )
        (self.gap_count, self.gap_mean, self.gap_m2, self.gap_min,
         self.gap_max) = add_sample(
            self.gap_count, self.gap_mean, self.gap_m2, self.gap_min,
            self.gap_max, self.gap_bins, gap_us,
        )

    def merge_stats(self, others) -> None:
        """Fold the stats blocks of ``others`` (records) in, in order:
        the inter-process merge of one record.  Both blocks fold in one
        loop over the records, each with :func:`fold_stats`'s float
        operations in its order (Chan et al.'s pairwise update, on
        locals), so the result is that of two ``fold_stats`` calls bit
        for bit; the loop spares them their per-record tuples."""
        dn, dmean, dm2, dmin, dmax, dbins = _DURATION(self)
        gn, gmean, gm2, gmin, gmax, gbins = _GAP(self)
        for other in others:
            n2 = other.dur_count
            if (other.dur_bins is None) != (dbins is None) or (
                (other.gap_bins is None) != (gbins is None)
            ):
                raise ValueError("cannot merge time stats of different modes")
            if not n2:
                pass
            elif not dn:
                dn, dmean, dm2 = n2, other.dur_mean, other.dur_m2
                dmin, dmax = other.dur_min, other.dur_max
                if dbins is not None:
                    dbins = list(other.dur_bins)
            else:
                delta = other.dur_mean - dmean
                total = dn + n2
                dmean += delta * n2 / total
                dm2 += other.dur_m2 + delta * delta * dn * n2 / total
                dn = total
                if other.dur_min < dmin:
                    dmin = other.dur_min
                if other.dur_max > dmax:
                    dmax = other.dur_max
                if dbins is not None:
                    dbins = [a + b for a, b in zip(dbins, other.dur_bins)]
            n2 = other.gap_count
            if not n2:
                continue
            if not gn:
                gn, gmean, gm2 = n2, other.gap_mean, other.gap_m2
                gmin, gmax = other.gap_min, other.gap_max
                if gbins is not None:
                    gbins = list(other.gap_bins)
                continue
            delta = other.gap_mean - gmean
            total = gn + n2
            gmean += delta * n2 / total
            gm2 += other.gap_m2 + delta * delta * gn * n2 / total
            gn = total
            if other.gap_min < gmin:
                gmin = other.gap_min
            if other.gap_max > gmax:
                gmax = other.gap_max
            if gbins is not None:
                gbins = [a + b for a, b in zip(gbins, other.gap_bins)]
        (self.dur_count, self.dur_mean, self.dur_m2, self.dur_min,
         self.dur_max, self.dur_bins) = dn, dmean, dm2, dmin, dmax, dbins
        (self.gap_count, self.gap_mean, self.gap_m2, self.gap_min,
         self.gap_max, self.gap_bins) = gn, gmean, gm2, gmin, gmax, gbins

    def merge_from(self, other: "CompressedRecord") -> None:
        """Fold another record with the same key into this one (intra-rank
        deferred-wildcard resolution path).  Occurrence indices are merged
        in sorted order — a late-resolving wildcard may carry an *earlier*
        visit index than occurrences already merged, and replay cursors
        require monotone sequences."""
        assert self.key == other.key
        seq = self.occurrences()
        mine = seq.to_list()
        theirs = other.occurrences().to_list()
        if not mine or not theirs or mine[-1] < theirs[0]:
            seq.extend(theirs)
        else:
            seq = IntSequence.from_values(sorted(mine + theirs))
        self.set_occurrences(seq)
        self.merge_stats((other,))

    def copy(self) -> "CompressedRecord":
        """An independent copy, filled slot by slot as :meth:`first`
        does (the merge copies every record of a group it does not own)."""
        rec = _new(CompressedRecord)
        rec.key = self.key
        rec.pending = self.pending
        rec.start = self.start
        rec.length = self.length
        rec.stride = self.stride
        rec.terms = None if self.terms is None else self.terms.copy()
        (rec.dur_count, rec.dur_mean, rec.dur_m2, rec.dur_min, rec.dur_max,
         bins) = _DURATION(self)
        rec.dur_bins = None if bins is None else bins.copy()
        (rec.gap_count, rec.gap_mean, rec.gap_m2, rec.gap_min, rec.gap_max,
         bins) = _GAP(self)
        rec.gap_bins = None if bins is None else bins.copy()
        return rec


_DURATION = attrgetter(
    "dur_count", "dur_mean", "dur_m2", "dur_min", "dur_max", "dur_bins"
)
_GAP = attrgetter(
    "gap_count", "gap_mean", "gap_m2", "gap_min", "gap_max", "gap_bins"
)


class StatsEntry(NamedTuple):
    """One stats block as a value: a loaded chunk's stats-table entry
    (``serialize.LeafReader``), and what a :class:`LeafView`'s
    ``durations`` / ``gaps`` columns hold — named like a record's stats
    slots (``bins`` ``None`` but in the histogram mode)."""

    count: int
    mean: float
    m2: float
    minimum: float
    maximum: float
    bins: list[int] | None


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
    durations: list[StatsEntry]  # group-wide
    gaps: list[StatsEntry]
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
            [rec.length for rec in records],
            [key[5] for key in keys], [key[6] for key in keys],
            list(map(StatsEntry._make, map(_DURATION, records))),
            list(map(StatsEntry._make, map(_GAP, records))),
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
