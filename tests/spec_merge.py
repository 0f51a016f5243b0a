"""Naive reference merge (paper §IV-B): the executable spec that
``repro.core.inter.merge_all`` is compared against, beside
``tests/spec_compress.py`` (§IV-A) and ``tests/spec_replay.py``.

Every rank's CTT becomes a throw-away table per vertex, ``{payload key:
[(rank, payload)]}``, and the tables are combined pairwise up a binary
reduction tree, the schedule the paper describes.  Each combine checks
that the two sides walk the same vertices and builds a new dict.  At the
end every group's members are sorted by rank, and a leaf group's records
are a copy of the lowest rank's with one ``TimeStats.merge`` per further
member, in ascending rank order, handed to the group as its one source.
Records are read through ``tests/record_fields.py``.
Each vertex's groups are listed by lowest rank.

Nothing is deferred or borrowed, and nothing is shared with
``MergedCTT.add_rank``: the only imports from ``repro.core.inter`` are
the payload containers that ``serialize.dumps`` reads.  Deliberately
slow and obvious — do not optimise it.
"""

from __future__ import annotations

from repro.core.errors import MergeError
from repro.core.inter import Group, MergedCTT, MergedVertex
from repro.static.cst import BRANCH, CALL, LOOP
from tests.record_fields import merge_timing, occurrences

__all__ = ["spec_merge"]


def _seq_key(seq) -> tuple:
    return (seq.length, tuple(seq.terms))


def _rank_table(ctt) -> list[tuple[int, str, dict]]:
    """Per vertex: ``(gid, kind, {payload key: [(rank, payload)]})``
    for one rank.  An empty payload means the rank never ran the vertex
    and joins no group there."""
    tables = []
    for v in ctt.vertices():
        table = {}
        if v.kind == LOOP and len(v.loop_counts):
            table[("L",) + _seq_key(v.loop_counts)] = [(ctt.rank, v.loop_counts)]
        elif v.kind == BRANCH and len(v.visits):
            table[("B",) + _seq_key(v.visits)] = [(ctt.rank, v.visits)]
        elif v.kind == CALL and v.records:
            key = ("R",) + tuple(
                (r.key, _seq_key(occurrences(r))) for r in v.records
            )
            table[key] = [(ctt.rank, v.records)]
        tables.append((v.gid, v.kind, table))
    return tables


def _combine(a: list, b: list) -> list:
    """One pairwise step: the two sides' tables, vertex by vertex."""
    if len(a) != len(b):
        raise MergeError(
            f"structural mismatch: {len(a)} vs {len(b)} vertices"
        )
    out = []
    for (gid, kind, ta), (gid_b, kind_b, tb) in zip(a, b):
        if (gid, kind) != (gid_b, kind_b):
            raise MergeError(f"structural mismatch at gid {gid} vs {gid_b}")
        merged = {key: list(members) for key, members in ta.items()}
        for key, members in tb.items():
            merged[key] = merged.get(key, []) + members
        out.append((gid, kind, merged))
    return out


def spec_merge(ctts) -> MergedCTT:
    """The merged tree of ``ctts``, listed in any order; a rank listed
    twice raises :class:`MergeError`."""
    seen = set()
    for ctt in ctts:
        if ctt.rank in seen:
            raise MergeError(f"rank {ctt.rank} is listed twice")
        seen.add(ctt.rank)
    level = [_rank_table(ctt) for ctt in ctts]
    while len(level) > 1:
        level = [
            _combine(level[i], level[i + 1]) if i + 1 < len(level) else level[i]
            for i in range(0, len(level), 2)
        ]
    result = MergedCTT(MergedVertex(ctts[0].root), len(ctts))
    for vertex, (_gid, _kind, table) in zip(result.vertices(), level[0]):
        groups = []
        for members in table.values():
            members = sorted(members, key=lambda m: m[0])
            ranks = [rank for rank, _ in members]
            first = members[0][1]
            if vertex.kind == LOOP:
                group = Group(ranks, counts=first)
            elif vertex.kind == BRANCH:
                group = Group(ranks, visits=first)
            else:
                records = [r.copy() for r in first]
                for _, theirs in members[1:]:
                    for mine, other in zip(records, theirs):
                        merge_timing(mine, other)
                group = Group(ranks, sources=[records])
            groups.append(group)
        vertex.groups = sorted(groups, key=lambda g: g.ranks[0])
    return result
