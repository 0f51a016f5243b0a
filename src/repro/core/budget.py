"""A rank's life outside the walk: live, spilled, sealed, folded.

:class:`RankTable` owns every rank's compression state between the
batches :mod:`repro.core.intra` walks, and the way from there to the
job-wide :class:`~repro.core.inter.MergedCTT` (:meth:`RankTable.merged`).
A rank is in one place: ``table.live`` holds the resident states,
coldest first (a touch moves a rank to the end — the dict order *is*
the LRU order), and every other known rank has one row, ``SPILLED`` or
``FOLDED``, with the event and record totals that left memory with it.
A discarded rank (quarantine) has no row, leaves the fold domain and
cannot come back: reading it raises.

Under ``CypressConfig(memory_budget_bytes=...)`` two moves keep the live
footprint under the budget:

* **fold** — a rank whose stream has ended (*sealed*) is merged into a
  partial tree (ScalaTrace-style incremental inter-process merge) once
  every lower rank of the fold domain is folded or discarded, and its
  state is dropped;
* **spill** — a *cold* rank (not the one currently ingesting) has its
  entire :class:`RankState` snapshotted into a CRC-framed on-disk
  container and evicted; it reloads when its next batch arrives, when
  it folds, or when a reader touches it.

Without a budget the table is the same object doing less: a sealed rank
stays live (folding early buys only memory, and every fold re-finalizes
the partial tree), and ``merged`` is one ``merge_all`` pass.

This module also owns the snapshot codec and the on-disk store.  The
container reuses the trace format's CRC32-framed sections
(:func:`repro.core.serialize.write_section` /
:func:`~repro.core.serialize.read_sections`), so a torn spill is
detected exactly like a torn trace: the checksum fails and the load
raises :class:`~repro.core.errors.TraceFormatError` instead of
resurrecting a half-written cursor.  Inside it a leaf's records are
what they are in a trace — leaf blocks over the snapshot's one stats
table (:class:`~repro.core.serialize.LeafWriter`); the record wire
format lives in :mod:`repro.core.serialize` alone.

**What a snapshot captures** (byte-exactly): every vertex's payload
(loop counts, branch visits, leaf records) plus the cursor state that
determines future output — ``search_pos``, ``leaf_visits``, branch-group
visit counters, the open frame stack, recursion save-slots, the
request-id table and the pre-gap clock.  Each leaf's ``params ->
record`` index is not stored but rebuilt exactly, from each record's
key (:func:`~repro.core.records.key_params`), so a reloaded rank builds
no key for a parameter set it has seen.  **What it drops** (empty on
reload): only the one-slot ``last_params``/``last_record`` cache in
front of the index.  The same bytes either way is what the
spill/reload property tests pin down.

A rank with unresolved wildcard receives (``pending`` non-empty) is
**unevictable**: its pending records hold live event objects whose
identity the resolution path needs, so :func:`encode_rank_state` refuses
and :meth:`RankTable.make_room` skips the rank until the wildcards
resolve.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

from .ctt import CTT, CTTShape, CTTVertex
from .errors import MergeError, StreamMismatchError, TraceFormatError
from .inter import MergedCTT, MergedVertex, merge_all
from .records import CompressedRecord, key_params
from .serialize import (
    ByteReader,
    ByteWriter,
    LeafReader,
    LeafWriter,
    _read_seq,
    _uvarint,
    _write_seq,
    read_sections,
    write_section,
)

_MAGIC = b"CYSP"
_VERSION = 3

#: Section kinds inside a spill container.
SEC_END = 0
SEC_STATE = 1


class SpillFormatError(TraceFormatError):
    """A spill container that is damaged (torn write, flipped bit)."""


# ---------------------------------------------------------------------------
# One rank's compression state.


@dataclass(slots=True)
class RankState:
    ctt: CTT
    rank: int = 0
    # Cursor frames ``[kind, vertex, iters]`` (see repro.core.intra).
    stack: list[list] = field(default_factory=list)
    recursion_saved: list[list[list] | None] = field(default_factory=list)
    req_gid: dict[int, int] = field(default_factory=dict)
    # rid -> (leaf, record, event, index of record in leaf.records); the
    # stored index lets resolution find the record in O(1) instead of a
    # backward identity scan, and is kept current when a resolved record
    # merges away (see IntraProcessCompressor._request_complete).
    pending: dict[int, tuple[CTTVertex, CompressedRecord, object, int]] = field(
        default_factory=dict
    )
    last_event_end: float = 0.0


# ---------------------------------------------------------------------------
# The live-memory model: what the budget compares against its bound.
#
# A CPython cost model (64-bit), deliberately coarse: the trigger needs
# to track the real footprint to within a small factor, not
# byte-perfectly — but it must *see* the state a serialized size
# ignores (the params index), because under budget pressure that state
# dominates.  tests/core/test_budget.py checks it against tracemalloc.
_PTR = 8
_VERTEX_BASE = 360       # CTTVertex slots + payload containers (a flat
                         # average; the dispatch tables are the shape's)
_SEQ_BASE = 120          # IntSequence object + terms list header
_SEQ_LIVE_FACTOR = 3     # boxed terms vs packed varint estimate
_LIST_BASE = 64
# A record: the object (its two stats blocks are slots), its key tuple's
# header and the boxed floats of its stats; then a slot per key field,
# and from its second occurrence term on a list of boxed 3-tuples.
_RECORD_BASE = 280
_TERM = 72
# One ``params_index`` entry: the 11-field parameter tuple only the
# index keeps alive (144 B; its elements are the key's) plus its dict
# slot — tracemalloc says 158 B an entry on sp, 177-186 on cg / mg.
_PARAMS_ENTRY = 160
# One item live tracing has buffered but not ingested (a shared marker
# item costs its list slot, an event its tuple and CommEvent): the
# geometric mean of 125-254 bytes measured on live runs of the five
# e2e shapes.
_ITEM_LIVE_BYTES = 160


def state_live_bytes(st: RankState) -> int:
    """Live footprint of one rank: every vertex's payload as boxed
    CPython objects plus its params index, and the state-level maps
    (frame stack, recursion save-slots, request table, pending-wildcard
    entries — each pending entry pins a record, an event object and a
    frame tuple)."""
    total = 96 + 88 * len(st.stack)
    for saved in st.recursion_saved:
        total += 32 + (88 * len(saved) if saved else 0)
    total += 120 * len(st.req_gid)
    total += 400 * len(st.pending)
    for v in st.ctt.vertices():
        total += _VERTEX_BASE
        if v.loop_counts is not None:
            total += _SEQ_BASE + _SEQ_LIVE_FACTOR * v.loop_counts.approx_bytes()
        if v.visits is not None:
            total += _SEQ_BASE + _SEQ_LIVE_FACTOR * v.visits.approx_bytes()
        records = v.records
        if records is not None:
            total += _LIST_BASE + _PTR * len(records)
            for r in records:
                # key None while a wildcard is pending
                total += _RECORD_BASE + _PTR * len(r.key or ())
                if r.terms is not None:
                    total += _LIST_BASE + _TERM * len(r.terms)
        if v.params_index is not None:
            # Every leaf owns the dict, filled or not; ``last_params``
            # is one of its tuples, not another.
            total += _LIST_BASE + _PARAMS_ENTRY * len(v.params_index)
    return total


def _totals(ctt: CTT) -> tuple[int, int]:
    """``(events, records)`` one rank's tree holds: every dispatched
    event incremented exactly one leaf's ``leaf_visits``."""
    events = records = 0
    for v in ctt.vertices():
        events += v.leaf_visits
        if v.records is not None:
            records += len(v.records)
    return events, records


# ---------------------------------------------------------------------------
# Rank-state snapshot codec.


def encode_rank_state(st) -> bytes:
    """Serialize one rank's complete compression state (duck-typed
    :class:`RankState`).  Raises :class:`ValueError` if the rank holds
    unresolved wildcard receives — those pin the rank in memory."""
    if st.pending:
        raise ValueError(
            f"rank {st.rank}: {len(st.pending)} unresolved wildcard "
            "receive(s) pin the state in memory (unevictable)"
        )
    w = ByteWriter()
    w.u(st.rank)
    w.f(st.last_event_end)
    _write_frames(w, st.stack)
    w.u(len(st.recursion_saved))
    for saved in st.recursion_saved:
        if saved is None:
            w.u(0)
        else:
            w.u(1)
            _write_frames(w, saved)
    w.u(len(st.req_gid))
    for rid, gid in st.req_gid.items():
        w.u(rid)
        w.z(gid)
    vertices = st.ctt.vertices()
    ops: dict[str, int] = {}
    for v in vertices:
        if v.records:
            for rec in v.records:
                op = rec.key[0]
                if op not in ops:
                    ops[op] = len(ops)
    w.u(len(ops))
    for op in ops:  # dict preserves insertion order
        w.s(op)
    # The stats table goes before the payloads that filled it.
    leaves = LeafWriter(ops)
    pw = ByteWriter()
    for v in vertices:
        pw.u(v.search_pos)
        pw.u(v.leaf_visits)
        if v.loop_counts is not None:
            _write_seq(pw, v.loop_counts)
        if v.visits is not None:
            _write_seq(pw, v.visits)
        if v.records is not None:
            leaves.leaf(pw, v.op, v.records)
        for count in v.group_visits:
            pw.u(count)
    leaves.table(w)
    w.raw(pw.bytes())
    return w.bytes()


def decode_rank_state(data: bytes, state_factory):
    """Inverse of :func:`encode_rank_state`.  ``state_factory(rank)``
    must return a fresh state whose CTT mirrors the same CST the
    snapshot was taken against; the snapshot's cursor and payload are
    written into it in pre-order, and each leaf's ``params_index`` is
    rebuilt from its records' keys."""
    r = ByteReader(data)
    rank = r.u()
    st = state_factory(rank)
    st.last_event_end = r.f()
    ctt = st.ctt
    st.stack = _read_frames(r, ctt)
    nsaved = r.u()
    saved_list = []
    for _ in range(nsaved):
        saved_list.append(_read_frames(r, ctt) if r.u() else None)
    st.recursion_saved = saved_list
    nreq = r.u()
    req_gid = {}
    for _ in range(nreq):
        rid = r.u()
        req_gid[rid] = r.z()
    st.req_gid = req_gid
    ops = [r.s() for _ in range(r.u())]
    # Payloads: the container's one-pass decoders from here.
    leaves = LeafReader(data, r.pos, ops)
    pos = leaves.pos
    for v in ctt.vertices():
        v.search_pos, pos = _uvarint(data, pos)
        v.leaf_visits, pos = _uvarint(data, pos)
        if v.loop_counts is not None:
            v.loop_counts, pos = _read_seq(data, pos)
        if v.visits is not None:
            v.visits, pos = _read_seq(data, pos)
        if v.records is not None:
            block, pos = leaves.leaf(data, pos, v.op, v.gid)
            v.records = records = block.records()
            index = v.params_index
            for rec in records:
                index[key_params(rec.key, rank)] = rec
        for i in range(len(v.group_visits)):
            v.group_visits[i], pos = _uvarint(data, pos)
    return st


def _write_frames(w: ByteWriter, frames: list) -> None:
    w.u(len(frames))
    for kind, vertex, iters in frames:
        w.u(kind)
        w.z(vertex.gid if vertex is not None else -1)
        w.u(iters)


def _read_frames(r: ByteReader, ctt) -> list:
    frames = []
    for _ in range(r.u()):
        kind = r.u()
        gid = r.z()
        iters = r.u()
        frames.append([kind, ctt.vertex(gid) if gid >= 0 else None, iters])
    return frames


# ---------------------------------------------------------------------------
# On-disk store.


class SpillStore:
    """Home of evicted rank snapshots: one container file per rank,
    written once with a plain ``write`` — no temp file, no fsync.  A
    spill belongs to the one process that wrote it and recovery replays
    session logs, never spills, so durability buys nothing; a torn spill
    is still refused by the CRC section framing, never silently decoded
    to a wrong cursor."""

    def __init__(self, directory: str | None = None) -> None:
        if directory is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="cypress-spill-")
            directory = self._tmpdir.name
        else:
            self._tmpdir = None
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self._ranks: set[int] = set()

    def path(self, rank: int) -> str:
        return os.path.join(self.directory, f"rank{rank}.cysp")

    def __contains__(self, rank: int) -> bool:
        return rank in self._ranks

    def spill(self, rank: int, payload: bytes) -> int:
        """Persist one encoded snapshot; returns the container size."""
        w = ByteWriter()
        w.raw(_MAGIC + bytes([_VERSION]))
        write_section(w, SEC_STATE, payload)
        ew = ByteWriter()
        ew.u(1)
        write_section(w, SEC_END, ew.bytes())
        data = w.bytes()
        path = self.path(rank)
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BaseException:
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
        self._ranks.add(rank)
        return len(data)

    def load(self, rank: int) -> bytes:
        """Read back one snapshot payload, checksum-verified."""
        path = self.path(rank)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise SpillFormatError(f"spill for rank {rank} unreadable: {exc}")
        if data[:4] != _MAGIC or len(data) < 5:
            raise SpillFormatError(f"not a spill container: {path}")
        if data[4] != _VERSION:
            raise SpillFormatError(
                f"unsupported spill version {data[4]} in {path}"
            )
        sections, complete, error = read_sections(data, 5, salvage=True)
        if not complete or not sections or sections[0][0] != SEC_STATE:
            raise SpillFormatError(
                f"torn spill container {path}: {error or 'missing state section'}"
            )
        return sections[0][1]

    def discard(self, rank: int) -> None:
        self._ranks.discard(rank)
        try:
            os.unlink(self.path(rank))
        except OSError:
            pass

    def close(self) -> None:
        for rank in list(self._ranks):
            self.discard(rank)
        if self._tmpdir is not None:
            try:
                self._tmpdir.cleanup()
            except OSError:
                pass
            self._tmpdir = None


# ---------------------------------------------------------------------------
# Accounting.


@dataclass
class BudgetCounters:
    """The ``budget.*`` observability counters (docs/INTERNALS.md §14)."""

    spills: int = 0
    spill_bytes: int = 0
    reloads: int = 0
    reload_bytes: int = 0
    folds: int = 0
    live_bytes: int = 0       # last enforcement's live total (gauge)
    peak_live_bytes: int = 0  # high-water mark of the live total

    def as_metrics(self) -> dict[str, int]:
        return {
            "budget.spills": self.spills,
            "budget.spill_bytes": self.spill_bytes,
            "budget.reloads": self.reloads,
            "budget.reload_bytes": self.reload_bytes,
            "budget.folds": self.folds,
            "budget.live_bytes": self.live_bytes,
            "budget.peak_live_bytes": self.peak_live_bytes,
        }


# ---------------------------------------------------------------------------
# The owner of every rank's state.

LIVE, SPILLED, FOLDED = "live", "spilled", "folded"


class RankTable:
    """Where every rank's state is, and the way from there to the merged
    tree (module docstring; docs/INTERNALS.md §14)."""

    def __init__(self, shape: CTTShape, config) -> None:
        self._shape = shape
        self._spill_dir = config.spill_dir
        self.budget: int | None = config.memory_budget_bytes
        self.counters = BudgetCounters()
        #: Resident states, coldest first.
        self.live: dict[int, RankState] = {}
        # rank -> (SPILLED | FOLDED, events, records) of every rank whose
        # tree has left memory; the totals keep the metrics exact.
        self._away: dict[int, tuple[str, int, int]] = {}
        self._store: SpillStore | None = None
        self._partial: MergedCTT | None = None
        self._nranks: int | None = None
        # The fold domain's ranks not yet folded or discarded, ascending:
        # rank -> has its stream ended (sealed)?
        self._waiting: dict[int, bool] = {}
        # Ranks discard() dropped: their state is gone for good.
        self._discarded: set[int] = set()

    # -- where a rank is ---------------------------------------------------

    def status(self, rank: int) -> str | None:
        """``LIVE``, ``SPILLED``, ``FOLDED``, or None for a rank never
        seen (or discarded)."""
        if rank in self.live:
            return LIVE
        row = self._away.get(rank)
        return row[0] if row is not None else None

    def ranks(self) -> list[int]:
        return sorted({*self.live, *self._away})

    def state(self, rank: int) -> RankState:
        """The rank's resident state: created on first sight, reloaded
        if it was spilled.  A folded or discarded rank raises."""
        st = self.live.get(rank)
        if st is not None:
            return st
        status = self.status(rank)
        if status == SPILLED:
            return self._reload(rank)
        if status == FOLDED:
            raise StreamMismatchError(
                f"rank {rank} was folded into the partial merged tree "
                "(memory budget mode); per-rank state is gone — use "
                "merged() / merged replay instead"
            )
        if rank in self._discarded:
            raise StreamMismatchError(
                f"rank {rank} was discarded (quarantined); its state is gone"
            )
        st = self.live[rank] = self._new_state(rank)
        return st

    def _new_state(self, rank: int) -> RankState:
        return RankState(ctt=CTT(self._shape, rank), rank=rank)

    def totals(self) -> tuple[int, int]:
        """``(events, records)`` over every known rank, resident or not."""
        rows = [row[1:] for row in self._away.values()]
        rows += [_totals(st.ctt) for st in self.live.values()]
        return sum(e for e, _ in rows), sum(r for _, r in rows)

    def live_bytes(self, buffered: int = 0) -> int:
        """Live footprint of the resident ranks (a spilled rank costs
        nothing — that is the point; it is not reloaded here) and of
        ``buffered`` items the caller holds outside the table."""
        return (
            sum(state_live_bytes(st) for st in self.live.values())
            + _ITEM_LIVE_BYTES * buffered
        )

    # -- spill and reload --------------------------------------------------

    def _spill(self, rank: int) -> None:
        if self._store is None:
            self._store = SpillStore(self._spill_dir)
        st = self.live[rank]
        nbytes = self._store.spill(rank, encode_rank_state(st))
        del self.live[rank]
        self._away[rank] = (SPILLED, *_totals(st.ctt))
        self.counters.spills += 1
        self.counters.spill_bytes += nbytes

    def _reload(self, rank: int) -> RankState:
        """Bring a spilled rank back, as the hottest: decode the
        snapshot, discard the container.  The reloaded state is
        cursor-exact and its record index complete; only the one-slot
        cache starts empty (module docstring)."""
        payload = self._store.load(rank)
        st = decode_rank_state(payload, self._new_state)
        self._store.discard(rank)
        del self._away[rank]
        self.live[rank] = st
        self.counters.reloads += 1
        self.counters.reload_bytes += len(payload)
        return st

    def _sample(self, buffered: int) -> int:
        """The live total (``buffered``: items the caller holds outside
        the table), recorded as the gauge and against the high-water
        mark."""
        bc = self.counters
        bc.live_bytes = total = self.live_bytes(buffered)
        if total > bc.peak_live_bytes:
            bc.peak_live_bytes = total
        return total

    def make_room(self, buffered: int, active: int | None = None) -> None:
        """Mark ``active`` the hottest rank and bring the live footprint
        back under the budget by spilling the coldest evictable ranks
        (never ``active``, never one with unresolved wildcards).  One
        call is O(live tree): the cadence is per batch, not per event."""
        live = self.live
        if active in live:
            live[active] = live.pop(active)
        total = self._sample(buffered)
        if total > self.budget:
            for rank in list(live):  # coldest first
                st = live[rank]
                if rank != active and not st.pending:
                    total -= state_live_bytes(st)
                    self._spill(rank)
                    if total <= self.budget:
                        break
            self.counters.live_bytes = total

    # -- seal and fold -----------------------------------------------------

    def arm(self, nranks: int | None = None, domain=None) -> None:
        if nranks is not None:
            self._nranks = nranks
        if domain is not None:
            self._waiting = dict.fromkeys(sorted(domain), False)

    def seal(self, rank: int, buffered: int) -> None:
        """``rank``'s stream has ended.  Under a budget it folds as soon
        as the ascending barrier lets it; without one it stays live."""
        if self.budget is None or rank not in self._waiting:
            return
        # Sampled before the fold releases the rank — the peak the soak
        # gate tracks.
        self._sample(buffered)
        self._waiting[rank] = True
        self._fold_ready()
        self.make_room(buffered)

    def _fold_ready(self) -> None:
        """Fold from the front of the domain up to the first rank still
        streaming: ascending order is what makes the fold byte-identical
        to the single pass (:meth:`~repro.core.inter.MergedCTT.fold_rank`)."""
        for rank, sealed in list(self._waiting.items()):
            if not sealed:
                break
            del self._waiting[rank]
            self._fold(rank)

    def _fold(self, rank: int) -> None:
        st = self.state(rank)  # reloads a spilled rank
        if st.pending:
            raise StreamMismatchError(
                f"rank {rank}: cannot fold with {len(st.pending)} "
                "unresolved wildcard receive(s)"
            )
        ctt = st.ctt
        if self._partial is None:
            self._partial = MergedCTT(MergedVertex(ctt.root), 0)
        self._partial.fold_rank(ctt, self._nranks)
        del self.live[rank]
        self._away[rank] = (FOLDED, *_totals(ctt))
        self.counters.folds += 1

    def merged(self, ranks: list[int], nranks: int | None = None) -> MergedCTT:
        """The finish line: the merged tree over ``ranks`` (ascending).
        With no budget, one :func:`merge_all` pass; with one, the ranks
        not folded yet fold now, one resident at a time.  Same bytes."""
        if nranks is not None:
            self._nranks = nranks
        if not ranks:
            raise MergeError("no ranks to merge")
        if self.budget is None:
            return merge_all(
                [self.state(rank).ctt for rank in ranks], nranks=self._nranks
            )
        folded = {r for r, row in self._away.items() if row[0] == FOLDED}
        if not folded.issubset(ranks):
            raise MergeError(
                f"rank(s) {sorted(folded.difference(ranks))} were already "
                "folded but are excluded from the requested merge — a "
                "fold cannot be undone"
            )
        for rank in ranks:
            if rank not in folded:
                self._fold(rank)
        self.make_room(0)
        return self._partial.finish(self._nranks)

    def discard(self, rank: int) -> None:
        """Drop a rank's state wherever it is (quarantine) and take it
        out of the fold domain, which may unblock the ranks behind it.
        A fold cannot be undone: a folded rank keeps its row."""
        self._discarded.add(rank)
        self.live.pop(rank, None)
        if self.status(rank) == SPILLED:
            del self._away[rank]
            self._store.discard(rank)
        if self._waiting.pop(rank, None) is not None:
            self._fold_ready()

    def close(self) -> None:
        """Delete every spill container (end of job)."""
        if self._store is not None:
            self._store.close()
            self._store = None
            self._away = {
                rank: row for rank, row in self._away.items()
                if row[0] != SPILLED
            }
