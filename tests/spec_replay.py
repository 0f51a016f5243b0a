"""Naive reference replay (paper §V): the cursor-scan walker the product
used until PR 20, kept as the executable spec that
``repro.core.decompress`` is compared against (ROADMAP item 5a).

No schedules, no shared plans, no event reuse: every leaf visit tries
every record's occurrence cursor in index order and builds a fresh
:class:`ReplayEvent`; a branch group's extent is re-derived at each
encounter.  Deliberately slow and obvious — do not optimise it.

Where the two differ on *damaged* input is pinned in
``tests/core/test_replay_spec.py``: the spec lets the lower-indexed of
two records claiming one visit win silently (the loser's cursor sticks),
the product raises at that visit.
"""

from __future__ import annotations

from repro.core.decompress import ReplayEvent
from repro.core.errors import DecompressionError
from repro.core.ranks import decode_peer
from repro.core.records import CompressedRecord
from repro.core.sequences import IntSequence
from repro.mpisim.datatypes import ANY_SOURCE
from repro.mpisim.events import NO_PEER
from repro.static.cst import BRANCH, CALL, LOOP
from tests.record_fields import duration, occurrences, pre_gap

__all__ = ["spec_rank", "spec_merged_rank", "spec_all", "SequenceCursor"]


class SequenceCursor:
    """Sequential reader over an :class:`IntSequence`.

    ``peek``/``next`` walk values in order; ``contains_next(v)`` answers
    "is ``v`` the next recorded value?" and consumes it when it is — the
    O(1)-amortised membership test this walker uses for monotone visit
    indices.
    """

    def __init__(self, seq: IntSequence) -> None:
        self._seq = seq
        self._term = 0
        self._offset = 0

    def exhausted(self) -> bool:
        return self._term >= len(self._seq.terms)

    def peek(self) -> int | None:
        if self.exhausted():
            return None
        start, _count, stride = self._seq.terms[self._term]
        return start + self._offset * stride

    def next(self) -> int:
        value = self.peek()
        if value is None:
            raise StopIteration("sequence exhausted")
        start, count, _stride = self._seq.terms[self._term]
        self._offset += 1
        if self._offset >= count:
            self._term += 1
            self._offset = 0
        return value

    def contains_next(self, value: int) -> bool:
        if self.peek() == value:
            self.next()
            return True
        return False

class PayloadView:
    """How the replay walker reads per-vertex payloads for one rank."""

    def loop_counts(self, vertex) -> IntSequence:
        raise NotImplementedError

    def visits(self, vertex) -> IntSequence:
        raise NotImplementedError

    def records(self, vertex) -> list[CompressedRecord]:
        raise NotImplementedError


class SingleRankView(PayloadView):
    """Payloads of one rank's own (unmerged) CTT."""

    def loop_counts(self, vertex) -> IntSequence:
        return vertex.loop_counts

    def visits(self, vertex) -> IntSequence:
        return vertex.visits

    def records(self, vertex) -> list[CompressedRecord]:
        return vertex.records


_EMPTY = IntSequence()


def _peer_in_range(peer: int, nranks: int) -> bool:
    """Is a decoded peer a real rank or a legal sentinel?"""
    return 0 <= peer < nranks or peer in (NO_PEER, ANY_SOURCE)


class _Replayer:
    def __init__(
        self, root, view: PayloadView, rank: int, nranks: int | None = None
    ) -> None:
        self.view = view
        self.rank = rank
        self.root = root
        self.nranks = nranks
        self.events: list[ReplayEvent] = []
        self._loop_cursor: dict[int, SequenceCursor] = {}
        self._visit_cursor: dict[int, SequenceCursor] = {}
        self._record_cursors: dict[int, list[SequenceCursor]] = {}
        self._group_counter: dict[tuple[int, int], int] = {}
        self._leaf_counter: dict[int, int] = {}

    # -- cursors, keyed by vertex identity ------------------------------

    def _loops(self, vertex) -> SequenceCursor:
        key = id(vertex)
        cur = self._loop_cursor.get(key)
        if cur is None:
            cur = SequenceCursor(self.view.loop_counts(vertex) or _EMPTY)
            self._loop_cursor[key] = cur
        return cur

    def _path_visits(self, vertex) -> SequenceCursor:
        key = id(vertex)
        cur = self._visit_cursor.get(key)
        if cur is None:
            cur = SequenceCursor(self.view.visits(vertex) or _EMPTY)
            self._visit_cursor[key] = cur
        return cur

    def _leaf_records(self, vertex) -> list[SequenceCursor]:
        key = id(vertex)
        cursors = self._record_cursors.get(key)
        if cursors is None:
            cursors = [SequenceCursor(occurrences(r)) for r in self.view.records(vertex)]
            self._record_cursors[key] = cursors
        return cursors

    # -- walk --------------------------------------------------------------

    def run(self) -> list[ReplayEvent]:
        self._replay_children(self.root)
        return self.events

    def _replay_children(self, vertex) -> None:
        children = vertex.children
        i = 0
        while i < len(children):
            child = children[i]
            if child.kind == CALL:
                self._emit_leaf(child)
                i += 1
            elif child.kind == LOOP:
                self._replay_loop(child)
                i += 1
            elif child.kind == BRANCH:
                i = self._replay_group(vertex, i)
            else:  # pragma: no cover - CSTs only contain these kinds
                raise DecompressionError(f"unexpected vertex kind {child.kind}")

    def _replay_loop(self, vertex) -> None:
        cursor = self._loops(vertex)
        count = cursor.next() if not cursor.exhausted() else 0
        for _ in range(count):
            self._replay_children(vertex)

    def _replay_group(self, parent, start: int) -> int:
        """Replay one branch group (consecutive same-``ast_id`` path
        vertices); returns the child index after the group."""
        children = parent.children
        ast_id = children[start].ast_id
        end = start
        paths = []
        while (
            end < len(children)
            and children[end].kind == BRANCH
            and children[end].ast_id == ast_id
            and not any(children[end].branch_path == p.branch_path for p in paths)
        ):
            paths.append(children[end])
            end += 1
        gkey = (id(parent), start)
        visit = self._group_counter.get(gkey, 0)
        self._group_counter[gkey] = visit + 1
        for path_vertex in paths:
            if self._path_visits(path_vertex).contains_next(visit):
                self._replay_children(path_vertex)
                break
        return end

    def _emit_leaf(self, vertex) -> None:
        key = id(vertex)
        visit = self._leaf_counter.get(key, 0)
        self._leaf_counter[key] = visit + 1
        records = self.view.records(vertex)
        cursors = self._leaf_records(vertex)
        for record, cursor in zip(records, cursors):
            if cursor.contains_next(visit):
                self.events.append(self._to_event(record, vertex.gid))
                return
        raise DecompressionError(
            f"rank {self.rank}: leaf gid={vertex.gid} ({vertex.op}) has no "
            f"record for visit {visit}; tried {len(records)} record(s) "
            f"with next occurrences {[c.peek() for c in cursors]}",
            rank=self.rank,
            gid=vertex.gid,
            op=vertex.op,
            visit=visit,
            candidates=tuple(r.key for r in records),
            cursors=tuple((i, c.peek()) for i, c in enumerate(cursors)),
        )

    def _decode(self, encoded, gid: int, op: str):
        if encoded[0] == "tor":  # a shift around one ring of the grid
            _, t, s, m = encoded
            coord = (self.rank // s) % m
            peer = self.rank - coord * s + ((coord + t) % m) * s
        else:
            peer = decode_peer(encoded, self.rank)
        nranks = self.nranks
        if nranks is not None:
            # A relative decode must land on a real rank — sentinels are
            # stored absolute, so a REL result of −1 is an overflow, not
            # ANY_SOURCE (satellite: boundary ranks of merged groups).
            if encoded[0] in ("rel", "tor"):
                ok = 0 <= peer < nranks
            else:
                ok = _peer_in_range(peer, nranks)
            if not ok:
                raise DecompressionError(
                    f"rank {self.rank}: leaf gid={gid} ({op}) decodes peer "
                    f"{encoded!r} to {peer}, outside [0, {nranks})",
                    rank=self.rank, gid=gid, op=op, candidates=(encoded,),
                )
        return peer

    def _to_event(self, record: CompressedRecord, gid: int) -> ReplayEvent:
        (
            op, peer_enc, peer2_enc, tag, tag2, nbytes, nbytes2,
            comm, root, wildcard, req_gids, result_comm,
        ) = record.key
        return ReplayEvent(
            op=op,
            peer=self._decode(peer_enc, gid, op),
            peer2=self._decode(peer2_enc, gid, op),
            tag=tag,
            tag2=tag2,
            nbytes=nbytes,
            nbytes2=nbytes2,
            comm=comm,
            root=root,
            wildcard=wildcard,
            req_gids=req_gids,
            mean_duration=duration(record).mean,
            mean_gap=pre_gap(record).mean,
            gid=gid,
            result_comm=result_comm,
        )


class MergedRankView(PayloadView):
    """One rank's view of a merged CTT: the group containing the rank."""

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def loop_counts(self, vertex) -> IntSequence | None:
        group = vertex.group_of(self.rank)
        return group.counts if group is not None else None

    def visits(self, vertex) -> IntSequence | None:
        group = vertex.group_of(self.rank)
        return group.visits if group is not None else None

    def records(self, vertex) -> list[CompressedRecord]:
        group = vertex.group_of(self.rank)
        return group.records if group is not None else []


def spec_rank(ctt, nranks: int | None = None) -> list[ReplayEvent]:
    """Replay one rank's own CTT."""
    return _Replayer(ctt.root, SingleRankView(), ctt.rank, nranks).run()


def spec_merged_rank(merged, rank: int, nranks: int | None = None) -> list[ReplayEvent]:
    """Replay ``rank`` from the merged CTT."""
    return _Replayer(merged.root, MergedRankView(rank), rank, nranks).run()


def spec_all(merged, nranks: int | None = None) -> dict[int, list[ReplayEvent]]:
    """Replay every rank that is a member of some group."""
    ranks = {
        r for v in merged.root.preorder() for g in v.groups for r in g.ranks
    }
    return {r: spec_merged_rank(merged, r, nranks) for r in sorted(ranks)}
