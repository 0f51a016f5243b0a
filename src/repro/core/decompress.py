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
laid out once as a *visit schedule* (``schedule[visit]`` → record index),
and a record becomes one immutable :class:`ReplayEvent` per rank that
every later occurrence appends again (docs/INTERNALS.md §9).  The same
walker replays a single-rank CTT or one rank's view of a merged CTT; the
difference is one ``payload(vertex)`` callable.

For non-tail recursion the pseudo-loop linearisation makes the *order*
approximate (the paper's "approximate loop control structure"); for
everything else the replay is exact and property-tested against ground
truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import obs
from repro.static.cst import BRANCH, CALL, LOOP

from .ctt import CTT
from .errors import DecompressionError
from .ranks import try_decode_peer
from .records import CompressedRecord
from .sequences import IntSequence, SequenceCursor

__all__ = [
    "DecompressionError",
    "ReplayEvent",
    "decompress_rank",
    "decompress_merged_rank",
    "decompress_all",
]


@dataclass(frozen=True)
class ReplayEvent:
    """One reconstructed MPI call (timing as recorded statistics).

    Every occurrence of a record replays as the *same* object for a
    rank, so an event must never be mutated or keyed by identity."""

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


def _own_payload(vertex):
    """What a vertex of a rank's own CTT stores: a LOOP's activation
    counts, a BRANCH path's visits, a CALL's records."""
    kind = vertex.kind
    if kind == CALL:
        return vertex.records
    return vertex.loop_counts if kind == LOOP else vertex.visits


def _group_payload(rank: int):
    """The same, read from the group of a merged vertex that holds
    ``rank`` (``None`` where no group does)."""

    def payload(vertex):
        group = vertex.group_of(rank)
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
    branch group (consecutive same-``ast_id`` path vertices, split where
    a ``branch_path`` repeats), ``(BRANCH, paths, steps of each path)``."""
    steps: list[tuple] = []
    children = vertex.children
    i = 0
    while i < len(children):
        child = children[i]
        i += 1
        if child.kind == CALL:
            steps.append((CALL, child, None))
        elif child.kind == LOOP:
            steps.append((LOOP, child, _compile(child)))
        elif child.kind == BRANCH:
            paths = [child]
            while (
                i < len(children)
                and children[i].kind == BRANCH
                and children[i].ast_id == child.ast_id
                and all(children[i].branch_path != p.branch_path for p in paths)
            ):
                paths.append(children[i])
                i += 1
            steps.append((BRANCH, paths, [_compile(p) for p in paths]))
        else:  # pragma: no cover - CSTs only contain these kinds
            raise DecompressionError(f"unexpected vertex kind {child.kind}")
    return steps


def _schedule(records: list[CompressedRecord]) -> list[int]:
    """``schedule[visit]`` → index of the record that replays the leaf's
    ``visit``-th execution: one slice assignment per occurrence term.

    Sound records partition ``[0, total)``, so a full schedule proves
    itself (``total`` claims, ``total`` slots, no hole → no overlap).
    Anything else is re-laid value by value, marking a visit nobody
    claims ``_HOLE`` and one claimed twice ``_CLASH``; the walk raises
    only if it reaches one."""
    total = sum(count for r in records for _, count, _ in r.occurrences.terms)
    schedule = [_HOLE] * total
    sound = True
    for index, record in enumerate(records):
        for start, count, stride in record.occurrences.terms:
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
        for visit in record.occurrences:
            if 0 <= visit < total:
                schedule[visit] = index if schedule[visit] == _HOLE else _CLASH
    return schedule


class _Replayer:
    """One rank's walk over compiled ``steps``.  ``schedules`` (keyed by
    the identity of a record list, which it keeps alive) holds nothing
    rank-dependent, so :func:`decompress_all` shares one across ranks."""

    def __init__(
        self, steps: list[tuple], payload, rank: int,
        nranks: int | None, schedules: dict[int, tuple],
    ) -> None:
        self.steps = steps
        self.payload = payload
        self.rank = rank
        self.nranks = nranks
        self.schedules = schedules
        self.events: list[ReplayEvent] = []
        self._loops: dict[int, SequenceCursor] = {}
        # id(paths) -> [visits so far, [(path cursor, path steps), ...]]
        self._groups: dict[int, list] = {}
        # id(leaf) -> [visits so far, schedule, records, event per record]
        self._leaves: dict[int, list] = {}

    def run(self) -> list[ReplayEvent]:
        t0 = time.perf_counter() if obs.enabled() else 0.0
        self._run(self.steps)
        registry = obs.active()
        if registry is not None:
            registry.observe("replay.rank_seconds", time.perf_counter() - t0)
            registry.counter_add("replay.events", len(self.events))
            registry.counter_add("replay.ranks", 1)
        return self.events

    def _run(self, steps: list[tuple]) -> None:
        leaves = self._leaves
        emit = self.events.append
        for kind, node, inner in steps:
            if kind == CALL:
                state = leaves.get(id(node)) or self._open_leaf(node)
                visit = state[0]
                state[0] = visit + 1
                schedule = state[1]
                index = schedule[visit] if visit < len(schedule) else _HOLE
                if index < 0:
                    raise self._unscheduled(node, visit, state[2], index == _CLASH)
                event = state[3][index]
                if event is None:
                    event = state[3][index] = self._to_event(
                        state[2][index], node.gid
                    )
                emit(event)
            elif kind == LOOP:
                cursor = self._loops.get(id(node))
                if cursor is None:
                    cursor = self._loops[id(node)] = SequenceCursor(
                        self.payload(node) or _EMPTY
                    )
                count = cursor.next() if not cursor.exhausted() else 0
                for _ in range(count):
                    self._run(inner)
            else:
                state = self._groups.get(id(node))
                if state is None:
                    state = self._groups[id(node)] = [0, [
                        (SequenceCursor(self.payload(path) or _EMPTY), body)
                        for path, body in zip(node, inner)
                    ]]
                visit = state[0]
                state[0] = visit + 1
                for cursor, body in state[1]:
                    if cursor.contains_next(visit):
                        self._run(body)
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
        state = self._leaves[id(vertex)] = [
            0, cached[0], records, [None] * len(records)
        ]
        return state

    def _unscheduled(
        self, vertex, visit: int, records, clash: bool
    ) -> DecompressionError:
        """The error for a visit the leaf's schedule cannot serve;
        ``cursors`` says where each record would next have replayed."""
        nexts = [r.occurrences.first_at_least(visit) for r in records]
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

    def _decode(self, encoded, gid: int, op: str) -> int:
        """A record's peer as this rank sees it.  Under ``nranks=`` a
        relative decode must land on a real rank and an absolute one on a
        rank or a legal sentinel (a REL result of −1 is an overflow, not
        ``ANY_SOURCE``: sentinels are stored absolute)."""
        peer, ok = try_decode_peer(encoded, self.rank, self.nranks)
        if not ok and self.nranks is not None:
            raise DecompressionError(
                f"rank {self.rank}: leaf gid={gid} ({op}) decodes peer "
                f"{encoded!r} to {peer}, outside [0, {self.nranks})",
                rank=self.rank, gid=gid, op=op, candidates=(encoded,),
            )
        return peer

    def _to_event(self, record: CompressedRecord, gid: int) -> ReplayEvent:
        (
            op, peer_enc, peer2_enc, tag, tag2, nbytes, nbytes2,
            comm, root, wildcard, req_gids, result_comm,
        ) = record.key
        return ReplayEvent(
            op, self._decode(peer_enc, gid, op), self._decode(peer2_enc, gid, op),
            tag, tag2, nbytes, nbytes2, comm, root, wildcard, req_gids,
            record.duration.mean, record.pre_gap.mean, gid, result_comm,
        )


def decompress_rank(ctt: CTT, nranks: int | None = None) -> list[ReplayEvent]:
    """Replay one rank's own CTT into its original event sequence.

    With ``nranks`` given, every decoded peer is validated against
    ``[0, nranks)`` (plus the legal sentinels) and an out-of-range decode
    raises :class:`DecompressionError` instead of yielding a bogus rank.
    """
    return _Replayer(_compile(ctt.root), _own_payload, ctt.rank, nranks, {}).run()


def decompress_merged_rank(
    merged, rank: int, nranks: int | None = None
) -> list[ReplayEvent]:
    """Replay ``rank``'s original sequence from the job-wide merged CTT.

    ``nranks`` enables strict peer-range validation (see
    :func:`decompress_rank`)."""
    steps = _compile(merged.root)
    return _Replayer(steps, _group_payload(rank), rank, nranks, {}).run()


def decompress_all(
    merged, nranks: int | None = None
) -> dict[int, list[ReplayEvent]]:
    """Replay every merged rank (0..nranks-1 inferred from group members);
    the compiled walk and every group's visit schedule are built once and
    shared by the ranks.  ``nranks`` as in :func:`decompress_rank`."""
    ranks: set[int] = set()
    for vertex in merged.root.preorder():
        for group in vertex.groups.values():
            ranks.update(group.ranks)
    with obs.span("replay.decompress_all"):
        steps = _compile(merged.root)
        schedules: dict[int, tuple] = {}
        return {
            r: _Replayer(steps, _group_payload(r), r, nranks, schedules).run()
            for r in sorted(ranks)
        }
