"""Sequence-preserving decompression / replay of compressed traces
(paper §V).

A rank replays by walking its CTT in pre-order: a loop vertex replays
its children as many times as the next activation's count says, a
branch group descends the path whose visit set holds the group's visit
counter, and a leaf emits the record whose occurrence set holds its own.

The walk reads only loop counts and branch visits, so the ranks of a
merged CTT holding the same LOOP and BRANCH groups (a *shape*) share one
walk; it yields each event's leaf and visit.  A leaf visit is an index,
not a search: the records' occurrence terms are laid out once as a *visit
schedule* (``schedule[visit]`` → record index), and each *rank class*
(the same group at every vertex) maps its shape's visits through its
leaves' schedules in list operations, into *slots* of a ``(record, gid)``
table that a rank decodes once each (docs/INTERNALS.md §9).  A record
with no relative peer is one event for every rank.  A single-rank CTT
takes the same path; the difference is one ``payload(vertex)`` callable.

For non-tail recursion the pseudo-loop linearisation makes the *order*
approximate (the paper's "approximate loop control structure"); for
everything else the replay is exact and property-tested against ground
truth.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from itertools import accumulate, count, repeat
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
    ``(CALL, [leaf, ...], None)`` for a run of calls,
    ``(LOOP, vertex, body steps)`` and, for a branch group
    (:func:`~repro.static.cst.branch_groups`), ``(BRANCH, paths, steps of
    each path)``."""
    steps: list[tuple] = []
    children = vertex.children
    groups = {run.start: run for run in branch_groups(children)}
    i = 0
    while i < len(children):
        child = children[i]
        if child.kind == CALL:
            if steps and steps[-1][0] == CALL:
                steps[-1][1].append(child)
            else:
                steps.append((CALL, [child], None))
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
    claims ``_HOLE`` and one claimed twice ``_CLASH``; replay raises
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


def _shape(steps, payload, limit: int) -> tuple:
    """One walk of ``steps``' loops and branches as ``payload`` reads
    them: ``(leaves, visits, places)``, each event's leaf, leaf → visits
    made (in first-reach order), and each event's place in those visits
    laid out leaf after leaf.  Past ``limit`` events (per leaf, the most
    occurrences a record list replayed there declares) some leaf has run
    past all of them and every class has failed: the walk stops there."""
    leaves: list = []
    emit = leaves.extend
    loops: dict = {}  # vertex -> its counts
    groups: dict = {}  # id(paths) -> [visits so far, [[next, visits, steps]]]

    def walk(steps: list[tuple]) -> None:
        for kind, node, inner in steps:
            if kind == CALL:
                emit(node)
            elif kind == LOOP:
                counts = loops.get(node)
                if counts is None:
                    counts = loops[node] = _values(payload(node) or _EMPTY)
                for _ in range(next(counts, 0)):
                    if len(leaves) > limit:
                        break
                    walk(inner)
            else:
                state = groups.get(id(node))
                if state is None:
                    state = groups[id(node)] = [0, []]
                    for path, body in zip(node, inner):
                        visits = _values(payload(path) or _EMPTY)
                        state[1].append([next(visits, None), visits, body])
                visit = state[0]
                state[0] = visit + 1
                for path in state[1]:
                    if path[0] == visit:
                        path[0] = next(path[1], None)
                        walk(path[2])
                        break

    walk(steps)
    visits = Counter(leaves)
    place = dict(zip(visits, map(count, accumulate(visits.values(), initial=0))))
    return leaves, visits, list(map(next, map(place.__getitem__, leaves)))


def _resolve(shape: tuple, payload, rank: int, schedules: dict):
    """A class's ``(slots, table, error)`` from its shape's walk: the
    ``(record, gid)`` of each record at a leaf reached, and an index into
    that table per event, cut at the first visit no record serves.
    ``schedules``: id(records) → ``(schedule, table entries, whole)``
    (the tree's own record lists, alive for the whole replay)."""
    leaves, visits, places = shape
    table, index, failed, sound = [], [], {}, True
    for leaf, n in visits.items():
        records = payload(leaf) or ()
        cached = schedules.get(id(records))
        if cached is None:
            try:
                schedule = _schedule(records)
            except (MemoryError, OverflowError) as exc:
                failed[leaf], sound = exc, False
                index += repeat(_HOLE, n)
                continue
            cached = schedules[id(records)] = (
                schedule, list(zip(records, repeat(leaf.gid))),
                min(schedule, default=0) >= 0,
            )
        schedule, pairs, whole = cached
        cut, base = schedule[:n], len(table)
        table += pairs
        if whole and len(cut) == n:
            index += map(base.__add__, cut)
        else:  # a hole or clash, or a visit past the schedule, reached?
            cut += repeat(_HOLE, n - len(cut))
            sound = sound and min(cut) >= 0
            index += map([*range(base, len(table)), _CLASH, _HOLE].__getitem__, cut)
    slots = list(map(index.__getitem__, places))
    if sound:
        return slots, table, None
    at = next(i for i, s in enumerate(slots) if s < 0)
    leaf = leaves[at]
    return slots[:at], table, _unscheduled(
        leaf, rank, leaves[:at].count(leaf), payload(leaf) or (), slots[at],
        failed.get(leaf),
    )


def _unscheduled(vertex, rank, visit, records, mark, exc) -> DecompressionError:
    """The error for a visit the leaf's schedule cannot serve (``mark``:
    ``_HOLE`` or ``_CLASH``; ``exc``: why there is no schedule at all);
    ``cursors`` says where each record would next have replayed."""
    nexts = [] if exc else [r.occurrences().first_at_least(visit) for r in records]
    if exc is not None:
        what = (f"declares more occurrences than a schedule can hold "
                f"({type(exc).__name__})")
    elif mark == _CLASH:
        claimants = [i for i, nxt in enumerate(nexts) if nxt == visit]
        what = f"has more than one record for visit {visit}: {claimants} claim it"
    else:
        what = (
            f"has no record for visit {visit}; tried {len(records)} "
            f"record(s) with next occurrences {nexts}"
        )
    error = DecompressionError(
        f"rank {rank}: leaf gid={vertex.gid} ({vertex.op}) {what}",
        rank=rank, gid=vertex.gid, op=vertex.op, visit=-1 if exc else visit,
        candidates=tuple(r.key for r in records),
        cursors=tuple(enumerate(nexts)),
    )
    error.__cause__ = exc
    return error


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


def _events(resolved, rank: int, nranks, shared: dict, order=None) -> list:
    """``rank``'s events from its class's :func:`_resolve`: each table
    entry decoded once (``shared``: id(record) → the one event of a
    record with no relative peer), then the slots expanded.  A peer that
    does not decode raises for the entry the rank reaches first, before
    the class's ``error``: a failed pass is redone in first-reach order."""
    slots, table, error = resolved
    new = tuple.__new__  # a ReplayEvent from one tuple: no argument binding
    decoded = [None] * len(table)
    try:
        for i in range(len(table)) if order is None else order:
            record, gid = table[i]
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
                    tag, tag2, nbytes, nbytes2, comm, root, wildcard,
                    req_gids, record.dur_mean, record.gap_mean, gid,
                    result_comm,
                ))
                if absolute:
                    shared[id(record)] = event
            decoded[i] = event
    except DecompressionError:
        if order is not None:
            raise
        return _events(resolved, rank, nranks, shared, dict.fromkeys(slots))
    if error is not None:
        raise error
    return list(map(decoded.__getitem__, slots))


def _replay(root, members, nranks, lists) -> dict[int, list[ReplayEvent]]:
    """Replay each ``(rank, [payload, [shape], resolved])`` of
    ``members`` in rank order; a shape is walked, and a class resolved,
    by its first (lowest) rank.  ``lists(leaf)``: the record lists the
    members read at ``leaf``, whose totals bound the walk."""
    registry = obs.active()
    steps = _compile(root)
    limit = sum(  # no sound rank has more events: see _shape
        max([sum(r.length for r in rs or ()) for rs in lists(v)], default=0)
        for v in root.preorder() if v.kind == CALL
    )
    schedules, shared, out = {}, {}, {}
    for rank, cls in members:
        t0 = time.perf_counter() if registry is not None else 0.0
        if cls[2] is None:
            shape = cls[1]
            if shape[0] is None:
                shape[0] = _shape(steps, cls[0], limit)
                if registry is not None:
                    registry.counter_add("replay.walks", 1)
            cls[2] = _resolve(shape[0], cls[0], rank, schedules)
        events = out[rank] = _events(cls[2], rank, nranks, shared)
        if registry is not None:
            registry.observe("replay.rank_seconds", time.perf_counter() - t0)
            registry.counter_add("replay.events", len(events))
            registry.counter_add("replay.ranks", 1)
    return out


def decompress_rank(ctt: CTT, nranks: int | None = None) -> list[ReplayEvent]:
    """Replay one rank's own CTT into its original event sequence.  With
    ``nranks``, a peer decoded outside ``[0, nranks)`` (and not a legal
    sentinel) raises :class:`DecompressionError`, not a bogus rank."""
    members = [(ctt.rank, [own_payload, [None], None])]
    return _replay(ctt.root, members, nranks, lambda v: (v.records,))[ctt.rank]


def decompress_merged_rank(
    merged, rank: int, nranks: int | None = None
) -> list[ReplayEvent]:
    """Replay ``rank``'s original sequence from the job-wide merged CTT
    (``nranks`` as in :func:`decompress_rank`)."""
    payload = group_payload(lambda v: v.group_of(rank))
    members = [(rank, [payload, [None], None])]
    return _replay(merged.root, members, nranks, lambda v: (payload(v),))[rank]


def decompress_all(
    merged, nranks: int | None = None
) -> dict[int, list[ReplayEvent]]:
    """Replay every merged rank (the ranks any group holds).  A rank's
    class is the groups holding it, in preorder (a group belongs to one
    vertex, so they name the vertices too), and its shape the loop and
    branch groups among them; the ranks of a shape share one walk, and
    those of a class one resolution of its leaves.  ``nranks`` as in
    :func:`decompress_rank`."""
    with obs.span("replay.decompress_all"):
        owner = {}
        held: defaultdict[int, list] = defaultdict(list)
        for vertex in merged.root.preorder():
            for group in vertex.groups:
                owner[group] = vertex
                for r in group.ranks:
                    held[r].append(group)
        shapes, classes, members = {}, {}, []
        for r in sorted(held):
            groups = tuple(held[r])
            if groups not in classes:
                at = {owner[g]: g for g in groups}
                shape = tuple(g for g in groups if owner[g].kind != CALL)
                classes[groups] = [
                    group_payload(at.get), shapes.setdefault(shape, [None]), None
                ]
            members.append((r, classes[groups]))
        return _replay(
            merged.root, members, nranks, lambda v: [g.records for g in v.groups]
        )
