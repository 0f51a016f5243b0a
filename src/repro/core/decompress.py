"""Sequence-preserving decompression / replay of compressed traces
(paper §V).

Traverses a CTT in pre-order and reconstructs each rank's exact original
event sequence:

* **loop vertex** — consume the next activation's iteration count and
  replay the children that many times;
* **branch group** — advance the group's visit counter once per encounter
  and descend the path whose recorded visit set contains the counter;
* **leaf vertex** — advance the leaf's visit counter and emit the record
  whose occurrence set contains it.

A leaf visit is an index, not a search: the records' occurrence terms are
laid out once as a *visit schedule* (``schedule[visit]`` → record index).
The walk emits *slots* into a table of ``(record, gid)`` pairs, which a
rank decodes once each (docs/INTERNALS.md §9).  Only peers depend on the
rank, so the ranks of a merged CTT holding the same group at every
vertex (a *rank class*) share one walk, and a record with no relative
peer is one event for every rank.  A single-rank CTT takes the same
walk; the difference is one ``payload(vertex)`` callable.

For non-tail recursion the pseudo-loop linearisation makes the *order*
approximate (the paper's "approximate loop control structure"); for
everything else the replay is exact and property-tested against ground
truth.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from itertools import repeat
from typing import Iterator, NamedTuple

from repro import obs
from repro.static.cst import BRANCH, CALL, LOOP, branch_groups

from .ctt import CTT
from .errors import DecompressionError
from .ranks import ABS, try_decode_peer
from .records import CompressedRecord
from .sequences import IntSequence

__all__ = [
    "DecompressionError", "ReplayEvent",
    "decompress_rank", "decompress_merged_rank", "decompress_all",
    "own_payload", "group_payload",
]


class ReplayEvent(NamedTuple):
    """One reconstructed MPI call (timing as recorded statistics).

    A record replays as one object for a rank, and one with no relative
    peer as one object for every rank: never key an event by identity."""

    op: str
    peer: int
    peer2: int
    tag: int
    tag2: int
    nbytes: int
    nbytes2: int
    comm: int
    root: int
    wildcard: bool
    req_gids: tuple[int, ...]
    mean_duration: float
    mean_gap: float
    gid: int = -1  # CTT leaf this event replays from (request matching)
    result_comm: int = -1  # MPI_Comm_split result

    def call_tuple(self) -> tuple:
        """Identity used to compare against ground-truth events."""
        return (
            self.op, self.peer, self.peer2, self.tag, self.tag2,
            self.nbytes, self.nbytes2, self.comm, self.root, self.wildcard,
            self.result_comm,
        )


_EMPTY = IntSequence()
_HOLE = -1  # schedule entry: no record claims the visit
_CLASH = -2  # schedule entry: more than one claim on the visit


def _values(seq: IntSequence) -> Iterator[int]:
    """``seq``'s values in the order the replay spec's cursor reads them
    (``tests/spec_replay.py``), a term's start once when its count is 1
    or less."""
    for start, count, stride in seq.terms:
        if count <= 1:
            yield start
        elif stride:
            yield from range(start, start + count * stride, stride)
        else:  # repeat() takes a C size; no walk reads past one anyway
            yield from repeat(start, min(count, sys.maxsize))


def own_payload(vertex):
    """What a vertex of a rank's own CTT stores: a LOOP's activation
    counts, a BRANCH path's visits, a CALL's records.  The replay walk
    and the invariant checker's arity walk both read payloads through
    this or :func:`group_payload`."""
    kind = vertex.kind
    if kind == CALL:
        return vertex.records
    return vertex.loop_counts if kind == LOOP else vertex.visits


def group_payload(group_at):
    """The same, read from ``group_at(vertex)``, the group of a merged
    vertex that holds the ranks walked (``None`` where no group does)."""

    def payload(vertex):
        group = group_at(vertex)
        if group is None:
            return None
        kind = vertex.kind
        if kind == CALL:
            return group.records
        return group.counts if kind == LOOP else group.visits

    return payload


def _compile(vertex) -> list[tuple]:
    """The walk below ``vertex`` as nested steps, resolved once per tree:
    ``(CALL, leaf, None)``, ``(LOOP, vertex, body steps)`` and, for a
    branch group (:func:`~repro.static.cst.branch_groups`),
    ``(BRANCH, paths, steps of each path)``."""
    steps: list[tuple] = []
    children = vertex.children
    groups = {run.start: run for run in branch_groups(children)}
    i = 0
    while i < len(children):
        child = children[i]
        if child.kind == CALL:
            steps.append((CALL, child, None))
        elif child.kind == LOOP:
            steps.append((LOOP, child, _compile(child)))
        elif child.kind == BRANCH:
            run = groups[i]
            paths = children[run.start:run.stop]
            steps.append((BRANCH, paths, [_compile(p) for p in paths]))
            i = run.stop
            continue
        else:  # pragma: no cover - CSTs only contain these kinds
            raise DecompressionError(f"unexpected vertex kind {child.kind}")
        i += 1
    return steps


def _schedule(records: list[CompressedRecord]) -> list[int]:
    """``schedule[visit]`` → index of the record that replays the leaf's
    ``visit``-th execution: one slice assignment per occurrence term.

    Sound records partition ``[0, total)``, so a full schedule proves
    itself (``total`` claims, ``total`` slots, no hole → no overlap).
    Anything else is re-laid value by value, marking a visit nobody
    claims ``_HOLE`` and one claimed twice ``_CLASH``; the walk raises
    only if it reaches one."""
    total = sum(r.length for r in records)
    schedule = [_HOLE] * total
    sound = True
    for index, record in enumerate(records):
        terms = record.terms
        if terms is None:
            terms = ((record.start, record.length, record.stride),)
        for start, count, stride in terms:
            if count == 1 and 0 <= start < total:
                schedule[start] = index
                continue
            last = start + (count - 1) * stride
            if count > 1 and stride > 0 and start >= 0 and last < total:
                schedule[start : last + 1 : stride] = [index] * count
            else:
                sound = False
    if sound and _HOLE not in schedule:
        return schedule
    schedule = [_HOLE] * total
    for index, record in enumerate(records):
        for visit in record.occurrences():
            if 0 <= visit < total:
                schedule[visit] = index if schedule[visit] == _HOLE else _CLASH
    return schedule


class _Walker:
    """One walk of ``steps`` as ``rank`` reads the tree through ``payload``:
    a slot per event, a ``(record, gid)`` table entry per record reached;
    a failed walk keeps that prefix and its ``error``.  ``schedules``
    (keyed by a record list's identity, which it keeps alive) is shared."""

    def __init__(self, steps, payload, rank: int, schedules: dict) -> None:
        self.payload = payload
        self.rank = rank
        self.schedules = schedules
        self.slots: list[int] = []
        self.table: list[tuple[CompressedRecord, int]] = []
        self.error: DecompressionError | None = None
        self._loops: dict[int, Iterator[int]] = {}
        # id(paths) -> [visits so far, [[next visit, visits, steps], ...]]
        self._groups: dict[int, list] = {}
        # id(leaf) -> [visits so far, schedule, records, slot per record]
        self._leaves: dict[int, list] = {}
        try:
            self._walk(steps)
        except DecompressionError as exc:
            self.error = exc
        self._loops = self._groups = self._leaves = None

    def _walk(self, steps: list[tuple]) -> None:
        leaves = self._leaves
        emit = self.slots.append
        for kind, node, inner in steps:
            if kind == CALL:
                state = leaves.get(id(node)) or self._open_leaf(node)
                visit = state[0]
                state[0] = visit + 1
                schedule = state[1]
                index = schedule[visit] if visit < len(schedule) else _HOLE
                if index < 0:
                    raise self._unscheduled(node, visit, state[2], index == _CLASH)
                slot = state[3][index]
                if slot is None:
                    slot = state[3][index] = len(self.table)
                    self.table.append((state[2][index], node.gid))
                emit(slot)
            elif kind == LOOP:
                counts = self._loops.get(id(node))
                if counts is None:
                    counts = self._loops[id(node)] = _values(
                        self.payload(node) or _EMPTY
                    )
                for _ in range(next(counts, 0)):
                    self._walk(inner)
            else:
                state = self._groups.get(id(node))
                if state is None:
                    state = self._groups[id(node)] = [0, []]
                    for path, body in zip(node, inner):
                        visits = _values(self.payload(path) or _EMPTY)
                        state[1].append([next(visits, None), visits, body])
                visit = state[0]
                state[0] = visit + 1
                for path in state[1]:
                    if path[0] == visit:
                        path[0] = next(path[1], None)
                        self._walk(path[2])
                        break

    def _open_leaf(self, vertex) -> list:
        records = self.payload(vertex) or []
        cached = self.schedules.get(id(records))
        if cached is None:
            try:
                cached = (_schedule(records), records)
            except (MemoryError, OverflowError) as exc:
                raise DecompressionError(
                    f"rank {self.rank}: leaf gid={vertex.gid} ({vertex.op}) "
                    f"declares more occurrences than a schedule can hold "
                    f"({type(exc).__name__})",
                    rank=self.rank, gid=vertex.gid, op=vertex.op,
                    candidates=tuple(r.key for r in records),
                ) from exc
            self.schedules[id(records)] = cached
        state = [0, cached[0], records, [None] * len(records)]
        self._leaves[id(vertex)] = state
        return state

    def _unscheduled(self, vertex, visit, records, clash) -> DecompressionError:
        """The error for a visit the leaf's schedule cannot serve;
        ``cursors`` says where each record would next have replayed."""
        nexts = [r.occurrences().first_at_least(visit) for r in records]
        if clash:
            claimants = [i for i, nxt in enumerate(nexts) if nxt == visit]
            what = f"has more than one record for visit {visit}: {claimants} claim it"
        else:
            what = (
                f"has no record for visit {visit}; tried {len(records)} "
                f"record(s) with next occurrences {nexts}"
            )
        return DecompressionError(
            f"rank {self.rank}: leaf gid={vertex.gid} ({vertex.op}) {what}",
            rank=self.rank, gid=vertex.gid, op=vertex.op, visit=visit,
            candidates=tuple(r.key for r in records),
            cursors=tuple(enumerate(nexts)),
        )


def _decode(encoded, rank: int, nranks: int | None, gid: int, op: str) -> int:
    """A record's peer as ``rank`` sees it.  Under ``nranks=`` a REL
    decode must land on a real rank and an ABS one on a rank or a legal
    sentinel (a REL −1 is an overflow: sentinels are stored absolute)."""
    peer, ok = try_decode_peer(encoded, rank, nranks)
    if not ok and nranks is not None:
        raise DecompressionError(
            f"rank {rank}: leaf gid={gid} ({op}) decodes peer "
            f"{encoded!r} to {peer}, outside [0, {nranks})",
            rank=rank, gid=gid, op=op, candidates=(encoded,),
        )
    return peer


def _events(walk: _Walker, rank: int, nranks, shared: dict) -> list:
    """``rank``'s events from its class's walk: each table entry decoded
    once, in first-reach order (so what a rank reaches first raises
    first), then the slots expanded.  ``shared``: id(record) → the one
    event of a record with no relative peer."""
    new = tuple.__new__  # a ReplayEvent from one tuple: no argument binding
    decoded = []
    for record, gid in walk.table:
        (
            op, peer_enc, peer2_enc, tag, tag2, nbytes, nbytes2,
            comm, root, wildcard, req_gids, result_comm,
        ) = record.key
        absolute = peer_enc[0] == ABS and peer2_enc[0] == ABS
        event = shared.get(id(record)) if absolute else None
        if event is None:
            event = new(ReplayEvent, (
                op, _decode(peer_enc, rank, nranks, gid, op),
                _decode(peer2_enc, rank, nranks, gid, op),
                tag, tag2, nbytes, nbytes2, comm, root, wildcard, req_gids,
                record.dur_mean, record.gap_mean, gid, result_comm,
            ))
            if absolute:
                shared[id(record)] = event
        decoded.append(event)
    if walk.error is not None:
        raise walk.error
    return list(map(decoded.__getitem__, walk.slots))


def _replay(steps, members, nranks) -> dict[int, list[ReplayEvent]]:
    """Replay each ``(rank, [payload, walk])`` of ``members`` in rank
    order; a class's walk is taken by its first (lowest) rank."""
    registry = obs.active()
    schedules, shared, out = {}, {}, {}
    for rank, cls in members:
        t0 = time.perf_counter() if registry is not None else 0.0
        walk = cls[1]
        if walk is None:
            walk = cls[1] = _Walker(steps, cls[0], rank, schedules)
            if registry is not None:
                registry.counter_add("replay.walks", 1)
        events = out[rank] = _events(walk, rank, nranks, shared)
        if registry is not None:
            registry.observe("replay.rank_seconds", time.perf_counter() - t0)
            registry.counter_add("replay.events", len(events))
            registry.counter_add("replay.ranks", 1)
    return out


def decompress_rank(ctt: CTT, nranks: int | None = None) -> list[ReplayEvent]:
    """Replay one rank's own CTT into its original event sequence.

    With ``nranks`` given, every decoded peer is validated against
    ``[0, nranks)`` (plus the legal sentinels) and an out-of-range decode
    raises :class:`DecompressionError` instead of yielding a bogus rank.
    """
    members = [(ctt.rank, [own_payload, None])]
    return _replay(_compile(ctt.root), members, nranks)[ctt.rank]


def decompress_merged_rank(
    merged, rank: int, nranks: int | None = None
) -> list[ReplayEvent]:
    """Replay ``rank``'s original sequence from the job-wide merged CTT.

    ``nranks`` enables strict peer-range validation (see
    :func:`decompress_rank`)."""
    members = [(rank, [group_payload(lambda v: v.group_of(rank)), None])]
    return _replay(_compile(merged.root), members, nranks)[rank]


def decompress_all(
    merged, nranks: int | None = None
) -> dict[int, list[ReplayEvent]]:
    """Replay every merged rank (0..nranks-1 inferred from group members).

    A rank's class is the groups holding it, in preorder (a group
    belongs to one vertex, so they name the vertices too); the ranks of
    a class share one walk.  ``nranks`` as in :func:`decompress_rank`."""
    with obs.span("replay.decompress_all"):
        owner = {}
        held: defaultdict[int, list] = defaultdict(list)
        for vertex in merged.root.preorder():
            for group in vertex.groups:
                owner[group] = vertex
                for r in group.ranks:
                    held[r].append(group)
        classes: dict[tuple, list] = {}
        members = []
        for r in sorted(held):
            groups = tuple(held[r])
            if groups not in classes:
                at = {owner[g]: g for g in groups}
                classes[groups] = [group_payload(at.get), None]
            members.append((r, classes[groups]))
        return _replay(_compile(merged.root), members, nranks)
