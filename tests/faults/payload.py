"""Deterministic corruption of *merged-trace payloads*.

:mod:`tests.faults.streams` damages the capture before compression (and
is caught by quarantine); the kinds here damage a **merged CTT** after
the pipeline finished — the domain of the invariant checker
(:mod:`repro.verify.invariants`).  Each kind breaks exactly one
documented invariant, so the fault matrix can prove the checker detects
every class of damage:

==================  =====================================================
kind                invariant broken (expected violation codes)
==================  =====================================================
``occ-overlap``     two records claim one occurrence index
``occ-hole``        occurrence union no longer ``{0..N-1}``
``rank-overlap``    one rank appears in two groups at a vertex
``rank-range``      a group contains a rank outside ``[0, nranks)``
``signature-stale`` payload mutated under its key in the merge's index
``loop-negative``   a negative loop iteration count
``peer-range``      a REL peer delta decoding outside the rank range
``visits-regress``  a branch visit sequence that is not monotone
==================  =====================================================

Same seed → the same victim vertex and the same damage, every run.
Damage lands on the merged tree only: a lone rank's group borrows that
rank's record list, so the record kinds damage a copy the group alone
holds, and the per-rank CTTs the tree was merged from stay intact.
"""

from __future__ import annotations

from repro.core.inter import Group
from repro.core.ranks import REL, TOR
from repro.core.sequences import IntSequence
from repro.static.cst import BRANCH, CALL, LOOP
from tests.record_fields import occurrences, set_occurrences

PAYLOAD_KINDS = (
    "occ-overlap",
    "occ-hole",
    "rank-overlap",
    "rank-range",
    "signature-stale",
    "loop-negative",
    "peer-range",
    "visits-regress",
)


def _groups_of_kind(merged, kind):
    """Deterministic pre-order list of (vertex, group) candidates."""
    out = []
    for vertex in merged.vertices():
        if vertex.kind != kind:
            continue
        for group in vertex.sorted_groups():
            out.append((vertex, group))
    return out


def _pick(candidates, rng, kind):
    if not candidates:
        raise ValueError(
            f"no candidate site for payload corruption kind {kind!r} "
            "(tree too small or wrong shape)"
        )
    return candidates[rng.randrange(len(candidates))]


def _own_record(group, record):
    """Swap ``record`` in ``group`` for a copy only the group holds and
    return the copy (the record and its list may be a rank's CTT's)."""
    copy = record.copy()
    group._records = [copy if r is record else r for r in group.records]
    return copy


def corrupt_merged(
    merged, kind: str, rng, nranks: int | None = None, saved: bool = False
) -> str:
    """Apply one payload corruption in place; returns a description of
    what was damaged.  Raises :class:`ValueError` when the tree has no
    site the kind applies to.  ``saved``: the damage must survive a save
    and a load — the loader refuses a rank list that is not ascending or
    outnumbers the job as a damaged file, so the rank kinds then damage
    a tree whose groups all hold every rank another way."""
    if kind == "occ-overlap":
        sites = [
            (v, g, r)
            for v, g in _groups_of_kind(merged, CALL)
            for r in (g.records or [])
            if r.key is not None and r.length >= 2
        ]
        vertex, group, record = _pick(sites, rng, kind)
        record = _own_record(group, record)
        values = occurrences(record).to_list()
        values[-1] = values[0]  # duplicate the first index, lose the last
        set_occurrences(record, IntSequence.from_values(sorted(values)))
        return f"gid={vertex.gid}: occurrence {values[0]} now claimed twice"
    if kind == "occ-hole":
        sites = [
            (v, g, r)
            for v, g in _groups_of_kind(merged, CALL)
            for r in (g.records or [])
            if r.key is not None and r.length >= 1
        ]
        vertex, group, record = _pick(sites, rng, kind)
        record = _own_record(group, record)
        values = occurrences(record).to_list()
        dropped = values.pop(rng.randrange(len(values)))
        set_occurrences(record, IntSequence.from_values(values))
        return f"gid={vertex.gid}: occurrence {dropped} dropped"
    if kind == "rank-overlap":
        sites = [
            v for v in merged.vertices() if len(v.groups) >= 2
        ]
        if sites:
            vertex = sites[rng.randrange(len(sites))]
            groups = vertex.sorted_groups()
            stolen = groups[0].ranks[0]
            groups[1].ranks = sorted(set(groups[1].ranks) | {stolen})
            groups[1]._rank_seq = None
            return f"gid={vertex.gid}: rank {stolen} copied into a 2nd group"
        # Degenerate tree (one group everywhere): duplicate a member
        # instead — breaks the strictly-ascending rank-list invariant —
        # or, for a file, give one member a second group at a leaf.
        vertex, group = _pick(
            [s for s in _groups_of_kind(merged, CALL)], rng, kind
        )
        if saved:
            stolen = group.ranks[0]
            vertex.groups.append(Group([stolen], sources=[group.records]))
            return f"gid={vertex.gid}: rank {stolen} given a second group"
        group.ranks = group.ranks + [group.ranks[-1]]
        group._rank_seq = None
        return f"gid={vertex.gid}: rank {group.ranks[-1]} duplicated in-group"
    if kind == "rank-range":
        vertex, group = _pick(
            [s for v in merged.vertices() for s in
             [(v, g) for g in v.sorted_groups()]], rng, kind,
        )
        span = nranks if nranks is not None else merged.nranks_merged
        bogus = span + 7
        # A saved group of the whole job swaps its top member for the
        # bogus rank.
        keep = group.ranks
        if saved and len(keep) >= span:
            keep = keep[:-1]
        group.ranks = keep + [bogus]
        group._rank_seq = None
        return f"gid={vertex.gid}: bogus rank {bogus} appended to a group"
    if kind == "signature-stale":
        sites = [
            (v, g) for v, g in _groups_of_kind(merged, LOOP)
            if g.counts is not None and len(g.counts)
        ]
        vertex, group = _pick(sites, rng, kind)
        values = group.counts.to_list()
        values[rng.randrange(len(values))] += 1
        group.counts = IntSequence.from_values(values)  # index key NOT updated
        return f"gid={vertex.gid}: loop counts mutated under a stale signature"
    if kind == "loop-negative":
        sites = [
            (v, g) for v, g in _groups_of_kind(merged, LOOP)
            if g.counts is not None and len(g.counts)
        ]
        vertex, group = _pick(sites, rng, kind)
        values = group.counts.to_list()
        values[rng.randrange(len(values))] = -3
        group.counts = IntSequence.from_values(values)
        return f"gid={vertex.gid}: loop count set to -3"
    if kind == "peer-range":
        sites = [
            (v, g, r)
            for v, g in _groups_of_kind(merged, CALL)
            for r in (g.records or [])
            if r.key is not None and r.key[1][0] in (REL, TOR)
        ]
        vertex, group, record = _pick(sites, rng, kind)
        record = _own_record(group, record)
        span = nranks if nranks is not None else merged.nranks_merged
        key = list(record.key)
        key[1] = (REL, span + 5)
        record.key = tuple(key)
        return f"gid={vertex.gid}: REL peer delta set to {span + 5}"
    if kind == "visits-regress":
        sites = [
            (v, g) for v, g in _groups_of_kind(merged, BRANCH)
            if g.visits is not None and len(g.visits) >= 2
        ]
        vertex, group = _pick(sites, rng, kind)
        values = group.visits.to_list()
        values[-1] = values[0]  # repeat the first visit at the end
        group.visits = IntSequence.from_values(values)
        return f"gid={vertex.gid}: visit sequence regresses to {values[0]}"
    raise ValueError(f"unknown payload-corruption kind {kind!r}")
