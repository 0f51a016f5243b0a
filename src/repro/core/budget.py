"""Bounded-memory streaming compression: spill store + budget accounting.

The budget mode (``CypressConfig(memory_budget_bytes=...)``) keeps the
compressor's live footprint under a target by two complementary moves,
both orchestrated by :mod:`repro.core.intra`:

* **fold** — a rank whose stream has fully ended is merged into a
  partial :class:`~repro.core.inter.MergedCTT` (ScalaTrace-style
  incremental inter-process merge) and its per-rank state is dropped;
* **spill** — a *cold* rank (open stream, but not the one currently
  ingesting) has its entire ``_RankState`` snapshotted into a crash-safe
  on-disk container and evicted; the snapshot reloads on demand when the
  rank's next batch arrives or when replay/query touches the rank.

This module owns the snapshot codec and the on-disk store.  The
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
request-id table and the pre-gap clock.  **What it drops** (empty on
reload): the per-leaf record caches in front of ``record_index`` —
``last_params``/``last_record`` and the ``params -> record`` index.
Those are pure accelerators — a reloaded rank refills them from
``record_index`` (which the decoder rebuilds) one key build per
parameter set and produces the same bytes, which is what the
spill/reload property tests pin down.

A rank with unresolved wildcard receives (``pending`` non-empty) is
**unevictable**: its pending records hold live event objects whose
identity the resolution path needs, so :func:`encode_rank_state` refuses
and the budget enforcer skips the rank until the wildcards resolve.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from .errors import TraceFormatError
from .serialize import (
    ByteReader,
    ByteWriter,
    LeafReader,
    LeafWriter,
    _read_seq,
    _uvarint,
    _write_seq,
    atomic_write,
    read_sections,
    write_section,
)

_MAGIC = b"CYSP"
_VERSION = 2

#: Section kinds inside a spill container.
SEC_END = 0
SEC_STATE = 1


class SpillFormatError(TraceFormatError):
    """A spill container that is damaged (torn write, flipped bit)."""


# ---------------------------------------------------------------------------
# Rank-state snapshot codec.


def encode_rank_state(st) -> bytes:
    """Serialize one rank's complete compression state (duck-typed
    ``_RankState``).  Raises :class:`ValueError` if the rank holds
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
        for group in v.branch_groups:
            pw.u(group.visit_counter)
    leaves.table(w)
    w.raw(pw.bytes())
    return w.bytes()


def decode_rank_state(data: bytes, state_factory, rebuild_index: bool = True):
    """Inverse of :func:`encode_rank_state`.  ``state_factory(rank)``
    must return a fresh state whose CTT mirrors the same CST the
    snapshot was taken against; the snapshot's cursor and payload are
    written into it in pre-order.  ``rebuild_index`` repopulates the
    per-leaf ``record_index`` (the unbounded-window key interner); pass
    False for bounded-window configs, which never consult it."""
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
            v.records, _, pos = leaves.leaf(data, pos, v.op, v.gid)
            if rebuild_index:
                index = v.record_index
                for rec in v.records:
                    index[rec.key] = rec
        for group in v.branch_groups:
            group.visit_counter, pos = _uvarint(data, pos)
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
    """Crash-safe home of evicted rank snapshots: one container file per
    rank, written atomically (``serialize.atomic_write``) so a crash
    mid-spill leaves either the previous snapshot or none — never a torn
    one that silently decodes to a wrong cursor."""

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

    def __len__(self) -> int:
        return len(self._ranks)

    def ranks(self) -> list[int]:
        return sorted(self._ranks)

    def spill(self, rank: int, payload: bytes) -> int:
        """Persist one encoded snapshot; returns the container size."""
        w = ByteWriter()
        w.raw(_MAGIC + bytes([_VERSION]))
        write_section(w, SEC_STATE, payload)
        ew = ByteWriter()
        ew.u(1)
        write_section(w, SEC_END, ew.bytes())
        data = w.bytes()
        atomic_write(self.path(rank), data)
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
