"""Naive reference compressor (paper §IV-A): the executable spec that
``repro.core.intra`` is compared against, beside ``tests/spec_replay.py``
for the other direction.

One rank's marker/event stream is walked item by item.  A cursor — a
stack of frames — follows the structural markers over the rank's CTT,
and each MPI event is compared with the records already at its own leaf:
merged into one whose parameters (all but time) match, appended as a new
record otherwise.

Everything the walk needs beyond the payload lives here, in plain dicts
keyed by vertex: search positions, leaf visit counters, branch groups
(re-derived from ``children`` at every encounter) and their visit
counters, and the key lookup of the unbounded window.  A vertex is read
only for its identity fields and ``children``, and written only through
its payload: ``loop_counts`` / ``visits`` by ``append``, ``records``
with records made by ``CompressedRecord.first`` and filled by
``add_occurrence`` / ``merge_from``.  Nothing is imported from
``repro.core.intra``.  Deliberately slow and obvious — do not optimise
it.
"""

from __future__ import annotations

from repro.core.ctt import CTT
from repro.core.errors import StreamMismatchError
from repro.core.ranks import encode_peer
from repro.core.records import CompressedRecord, make_key
from repro.core.timing import MEANSTD
from repro.mpisim.events import NONBLOCKING_OPS
from repro.mpisim.pmpi import (
    OP_BRANCH_ENTER,
    OP_BRANCH_EXIT,
    OP_EVENT,
    OP_FINALIZE,
    OP_LOOP_ITER,
    OP_LOOP_POP,
    OP_LOOP_PUSH,
    OP_RECURSE_ENTER,
    OP_RECURSE_EXIT,
    OP_REQ_COMPLETE,
)
from repro.static.cst import BRANCH, CALL, LOOP

__all__ = [
    "SpecWalk",
    "branch_groups",
    "find_child",
    "find_group",
    "spec_compress",
    "spec_compress_streams",
]


# ---------------------------------------------------------------------------
# Child lookup: ordered search with wrap-around.  Every vertex remembers
# where the next search among its children starts; the match is the first
# child at or after that position, else the first one before it.  That is
# what tells two inlined copies of one function under one parent apart.


def find_child(vertex, predicate, start: int):
    """``(child, index)`` of the first child of ``vertex`` at or after
    ``start`` that satisfies ``predicate``, else of the first such child
    before ``start``; ``None`` when no child does."""
    children = vertex.children
    n = len(children)
    for idx in list(range(start, n)) + list(range(min(start, n))):
        if predicate(children[idx]):
            return children[idx], idx
    return None


def branch_groups(vertex) -> list[tuple]:
    """The branch groups among ``vertex``'s children, in child order, as
    ``(ast_id, first index, last index, {path: path vertex})``: a group
    is a run of consecutive branch-path children of one ``if``, ended by
    any other child, another ``ast_id`` or a path already in the run
    (the next inlined copy of the same ``if``)."""
    groups = []
    run = None
    for idx, child in enumerate(vertex.children):
        if child.kind != BRANCH:
            run = None
        elif run is not None and run[0] == child.ast_id and child.branch_path not in run[3]:
            run[2] = idx
            run[3][child.branch_path] = child
        else:
            run = [child.ast_id, idx, idx, {child.branch_path: child}]
            groups.append(run)
    return [tuple(g) for g in groups]


def find_group(vertex, ast_id: int, start: int):
    """The branch group of ``ast_id`` under ``vertex`` whose first path
    is at or after ``start``, else the first one of that ``ast_id``;
    ``None`` when there is none."""
    candidates = [g for g in branch_groups(vertex) if g[0] == ast_id]
    for group in candidates:
        if group[1] >= start:
            return group
    return candidates[0] if candidates else None


# ---------------------------------------------------------------------------
# The walk.


class SpecWalk:
    """One rank's compression state, fed an opcode stream by :meth:`feed`
    (the items :class:`~repro.mpisim.pmpi.CaptureCallbacks` builds)."""

    def __init__(
        self,
        cst,
        rank: int = 0,
        *,
        window: int | None = None,
        timing_mode: str = MEANSTD,
        relative_ranks: bool = True,
    ) -> None:
        self.ctt = CTT(cst, rank)
        self.rank = rank
        self.window = window
        self.timing_mode = timing_mode
        self.relative = relative_ranks
        self.items = 0  # stream items consumed
        # Frames [kind, vertex or None (a pruned structure), iterations].
        self.stack: list[list] = []
        # Per open recursion: the frames set aside by its latest entry,
        # or None for the outermost entry.
        self.saved: list = []
        self.search: dict = {}  # vertex -> where its next child search starts
        self.leaf_visits: dict = {}  # leaf -> events it has taken
        self.group_visits: dict = {}  # (parent, first index) -> entries
        self.by_key: dict = {}  # leaf -> {key: record} (unbounded window)
        self.req_gid: dict[int, int] = {}  # live request id -> creator gid
        # Wildcard receives awaiting their source: request id ->
        # (leaf, placeholder record, event, visit, duration, gap).
        self.pending: dict[int, tuple] = {}
        self.last_end = 0.0  # when the rank's latest event so far ended

    def feed(self, stream) -> None:
        for item in stream:
            try:
                self.step(item)
            except StreamMismatchError as exc:
                exc.item_index = self.items
                raise
            self.items += 1

    def mismatch(self, message: str) -> StreamMismatchError:
        return StreamMismatchError(f"rank {self.rank}: {message}")

    def cursor(self):
        return self.stack[-1][1] if self.stack else self.ctt.root

    def step(self, item) -> None:
        code = item[0]
        if code == OP_EVENT:
            self.event(item[1])
        elif code == OP_LOOP_PUSH:
            self.loop_push(item[1])
        elif code == OP_LOOP_ITER:
            self.loop_iter(item[1])
        elif code == OP_LOOP_POP:
            self.loop_pop(item[1])
        elif code == OP_BRANCH_ENTER:
            self.branch_enter(item[1], item[2])
        elif code == OP_BRANCH_EXIT:
            self.branch_exit(item[1])
        elif code == OP_RECURSE_ENTER:
            self.recurse_enter(item[1])
        elif code == OP_RECURSE_EXIT:
            self.recurse_exit(item[1])
        elif code == OP_REQ_COMPLETE:
            self.request_complete(item[1], item[2], item[3])
        elif code == OP_FINALIZE:
            if self.pending:
                raise self.mismatch(
                    f"{len(self.pending)} wildcard receive(s) never completed"
                )
        else:
            raise self.mismatch(f"unknown stream opcode {code!r}")

    # -- structural markers ----------------------------------------------

    def open_frame(self, kind: str, what: str) -> list:
        if not self.stack or self.stack[-1][0] != kind:
            raise self.mismatch(f"{what} with no open {kind}")
        return self.stack[-1]

    def loop_push(self, ast_id: int) -> list:
        cur = self.cursor()
        frame = [LOOP, None, 0]
        if cur is not None:
            hit = find_child(
                cur,
                lambda c: c.kind == LOOP and c.ast_id == ast_id,
                self.search.get(cur, 0),
            )
            if hit is not None:
                child, idx = hit
                self.search[cur] = idx + 1
                self.search[child] = 0
                frame[1] = child
        self.stack.append(frame)
        return frame

    def loop_iter(self, ast_id: int) -> None:
        frame = self.open_frame(LOOP, f"loop iteration marker {ast_id}")
        frame[2] += 1
        if frame[1] is not None:
            self.search[frame[1]] = 0

    def loop_pop(self, ast_id: int) -> None:
        frame = self.open_frame(LOOP, f"loop exit marker {ast_id}")
        self.stack.pop()
        if frame[1] is not None:
            frame[1].loop_counts.append(frame[2])

    def branch_enter(self, ast_id: int, path: int) -> None:
        cur = self.cursor()
        frame = [BRANCH, None, 0]
        if cur is not None:
            group = find_group(cur, ast_id, self.search.get(cur, 0))
            if group is not None:
                _, first, last, paths = group
                self.search[cur] = last + 1
                visit = self.group_visits.get((cur, first), 0)
                self.group_visits[(cur, first)] = visit + 1
                taken = paths.get(path)
                if taken is not None:
                    taken.visits.append(visit)
                    self.search[taken] = 0
                    frame[1] = taken
        self.stack.append(frame)

    def branch_exit(self, ast_id: int) -> None:
        self.open_frame(BRANCH, f"branch exit marker {ast_id}")
        self.stack.pop()

    def recurse_enter(self, ast_id: int) -> None:
        # Re-entering an open pseudo loop (paper Fig. 8) is its next
        # iteration: the frames opened since its last entry are set
        # aside until this call returns.
        for i in range(len(self.stack) - 1, -1, -1):
            kind, vertex, _ = self.stack[i]
            if kind == LOOP and vertex is not None and vertex.ast_id == ast_id:
                self.saved.append(self.stack[i + 1:])
                del self.stack[i + 1:]
                self.stack[i][2] += 1
                self.search[vertex] = 0
                return
        # The outermost entry opens the pseudo loop at its first iteration.
        self.loop_push(ast_id)[2] = 1
        self.saved.append(None)

    def recurse_exit(self, ast_id: int) -> None:
        if not self.saved:
            raise self.mismatch(f"recursion exit marker {ast_id} without entry")
        frames = self.saved.pop()
        if frames is None:
            self.loop_pop(ast_id)
        else:
            self.stack.extend(frames)

    # -- communication events --------------------------------------------

    def key(self, ev, peer: int, nbytes: int, req_gids: tuple):
        return make_key(
            ev.op,
            encode_peer(peer, self.rank, self.relative),
            encode_peer(ev.peer2, self.rank, self.relative),
            ev.tag,
            ev.tag2,
            nbytes,
            ev.nbytes2,
            ev.comm,
            ev.root,
            ev.wildcard,
            req_gids,
            ev.result_comm,
        )

    def event(self, ev) -> None:
        cur = self.cursor()
        if cur is None:
            raise self.mismatch(f"event {ev.op} inside a pruned structure")
        hit = find_child(
            cur,
            lambda c: c.kind == CALL and c.op == ev.op,
            self.search.get(cur, 0),
        )
        if hit is None:
            raise self.mismatch(f"no CST leaf for {ev.op} under gid={cur.gid}")
        leaf, idx = hit
        self.search[cur] = idx + 1
        visit = self.leaf_visits.get(leaf, 0)
        self.leaf_visits[leaf] = visit + 1

        # Requests: an op that creates one records its leaf; a completion
        # names the leaves that created its requests (paper Fig. 12) —
        # every id looked up, then every id forgotten; an unknown id is -1.
        if leaf.op in NONBLOCKING_OPS:
            self.req_gid[ev.req] = leaf.gid
        req_gids = tuple(self.req_gid.get(r, -1) for r in ev.reqs)
        for r in ev.reqs:
            self.req_gid.pop(r, None)

        # Time: the call's duration, and the gap since the end of the
        # latest earlier event (never negative).
        duration = ev.duration
        gap = ev.time_start - self.last_end
        if gap < 0.0:
            gap = 0.0
        self.last_end = max(self.last_end, ev.time_start + duration)

        if ev.wildcard and ev.op == "MPI_Irecv":
            # The source is unknown until completion: hold the record's
            # place at the leaf and compare it then.
            placeholder = CompressedRecord.first(
                None, visit, duration, gap, self.timing_mode, pending=True
            )
            leaf.records.append(placeholder)
            self.pending[ev.req] = (leaf, placeholder, ev, visit, duration, gap)
            return
        key = self.key(ev, ev.peer, ev.nbytes, req_gids)
        records = leaf.records
        if self.window is None:
            # Unbounded: the one record with this key, wherever it is.
            index = self.by_key.setdefault(leaf, {})
            record = index.get(key)
            if record is not None:
                record.add_occurrence(visit, duration, gap)
                return
            record = CompressedRecord.first(
                key, visit, duration, gap, self.timing_mode
            )
            records.append(record)
            index[key] = record
            return
        # Bounded: the latest ``window`` records, newest first; a record
        # still waiting for its source takes a place but never matches.
        for record in reversed(records[max(0, len(records) - self.window):]):
            if not record.pending and record.key == key:
                record.add_occurrence(visit, duration, gap)
                return
        records.append(
            CompressedRecord.first(key, visit, duration, gap, self.timing_mode)
        )

    def request_complete(self, rid: int, source: int, nbytes: int) -> None:
        entry = self.pending.pop(rid, None)
        if entry is None:
            return
        leaf, placeholder, ev, visit, duration, gap = entry
        resolved = CompressedRecord.first(
            self.key(ev, source, nbytes, ()), visit, duration, gap,
            self.timing_mode,
        )
        records = leaf.records
        pos = next(i for i, r in enumerate(records) if r is placeholder)
        if self.window is None:
            index = self.by_key.setdefault(leaf, {})
            other = index.get(resolved.key)
            if other is None:
                records[pos] = index[resolved.key] = resolved
            else:
                other.merge_from(resolved)
                del records[pos]
            return
        # Bounded: compared with the ``window`` records before its place.
        for other in reversed(records[max(0, pos - self.window):pos]):
            if not other.pending and other.key == resolved.key:
                other.merge_from(resolved)
                del records[pos]
                return
        records[pos] = resolved


def spec_compress(
    cst,
    stream,
    rank: int = 0,
    *,
    window: int | None = None,
    timing_mode: str = MEANSTD,
    relative_ranks: bool = True,
) -> CTT:
    """One rank's CTT, compressed from its opcode stream."""
    walk = SpecWalk(
        cst, rank, window=window, timing_mode=timing_mode,
        relative_ranks=relative_ranks,
    )
    walk.feed(stream)
    return walk.ctt


def spec_compress_streams(cst, streams: dict, **config) -> list[CTT]:
    """Every rank's CTT, in rank order, from ``{rank: stream}``."""
    return [
        spec_compress(cst, streams[rank], rank, **config)
        for rank in sorted(streams)
    ]
