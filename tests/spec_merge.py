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

Then the final pass (torus-relative peers), spelled from its rule: at
each leaf, every pair of groups that agree on everything but the deltas
of their REL peers proposes each ``|d_a - d_b|`` that divides the job
size as a block size ``s·m``, split every way with ``m >= 2``; a
candidate re-encodes a delta ``d`` as ``(TOR, t, s, m)`` when ``s``
divides it and every member ``r`` has ``r + d`` in its own block
(``t = d/s mod m`` in ``(-m/2, m/2]``); the candidate leaving the
fewest distinct payloads wins (ties: smaller ``s·m``, then ``s``), if it
leaves fewer than there were, and equal payloads unite — stats folded
group by group in order of lowest rank.

Nothing is deferred or borrowed, and nothing is shared with
``MergedCTT.add_rank``: the only imports from ``repro.core.inter`` are
the payload containers that ``serialize.dumps`` reads.  Deliberately
slow and obvious — do not optimise it.
"""

from __future__ import annotations

from repro.core.errors import MergeError
from repro.core.inter import Group, MergedCTT, MergedVertex
from repro.core.ranks import REL, TOR
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


def _agree_but_deltas(a, b) -> bool:
    """Whether two leaf payloads differ in REL deltas only."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if _seq_key(occurrences(ra)) != _seq_key(occurrences(rb)):
            return False
        ka, kb = ra.key, rb.key
        if ka[0] != kb[0] or ka[3:] != kb[3:]:
            return False
        for slot in (1, 2):
            if ka[slot][0] != kb[slot][0]:
                return False
            if ka[slot][0] != REL and ka[slot] != kb[slot]:
                return False
    return True


def _tor(enc, ranks, s, m):
    """``enc`` re-encoded under ``(s, m)`` for every rank of ``ranks``,
    or as it is."""
    if enc[0] != REL or enc[1] % s:
        return enc
    d = enc[1]
    block = s * m
    for r in ranks:
        if r + d < 0 or (r + d) // block != r // block:
            return enc
    t = (d // s) % m
    if t > m / 2:
        t -= m
    return (TOR, t, s, m)


def _payload(records, ranks, s, m) -> tuple:
    return tuple(
        (
            (r.key[0], _tor(r.key[1], ranks, s, m),
             _tor(r.key[2], ranks, s, m)) + r.key[3:],
            _seq_key(occurrences(r)),
        )
        for r in records
    )


def _wrap(vertex, job: int) -> None:
    groups = vertex.groups
    candidates = set()
    for i, a in enumerate(groups):
        for b in groups[i + 1:]:
            if not _agree_but_deltas(a.records, b.records):
                continue
            for ra, rb in zip(a.records, b.records):
                for slot in (1, 2):
                    if ra.key[slot][0] != REL:
                        continue
                    size = abs(ra.key[slot][1] - rb.key[slot][1])
                    if size < 2 or job % size:
                        continue
                    for s in range(1, size + 1):
                        if size % s == 0 and size // s >= 2:
                            candidates.add((s, size // s))
    best = None
    for s, m in sorted(candidates, key=lambda c: (c[0] * c[1], c[0])):
        count = len({_payload(g.records, g.ranks, s, m) for g in groups})
        if count < len(groups) and (best is None or count < best[0]):
            best = (count, s, m)
    if best is None:
        return
    _, s, m = best
    united = {}
    for g in groups:
        united.setdefault(_payload(g.records, g.ranks, s, m), []).append(g)
    vertex.groups = []
    for members in united.values():
        first = members[0]
        records = [r.copy() for r in first.records]
        for record in records:
            key = record.key
            record.key = (
                key[0], _tor(key[1], first.ranks, s, m),
                _tor(key[2], first.ranks, s, m),
            ) + key[3:]
        for other in members[1:]:
            for mine, theirs in zip(records, other.records):
                merge_timing(mine, theirs)
        ranks = sorted(r for g in members for r in g.ranks)
        vertex.groups.append(Group(ranks, sources=[records]))
    vertex.groups.sort(key=lambda g: g.ranks[0])
    vertex.torus = (s, m)


def spec_merge(ctts, nranks: int | None = None) -> MergedCTT:
    """The merged tree of ``ctts``, listed in any order; a rank listed
    twice raises :class:`MergeError`.  The job size is ``nranks``, or
    more should the ranks merged or a member rank need it."""
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
    members = [r for v in result.vertices() for g in v.groups for r in g.ranks]
    job = max([nranks or 0, len(ctts)] + [r + 1 for r in members])
    for vertex in result.vertices():
        if vertex.kind == CALL:
            _wrap(vertex, job)
    result.job_size = job
    return result
