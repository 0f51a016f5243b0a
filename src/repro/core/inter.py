"""Inter-process trace compression (paper §IV-B).

Because every rank's CTT mirrors the *same* static CST, merging
compressed traces is a vertex-by-vertex walk — O(n) in the tree size —
instead of the O(n²) sequence alignment dynamic-only tools need.  At each
vertex, per-rank payloads that are identical (ignoring timing) collapse
into one *group* holding the payload once plus the set of ranks; timing
statistics merge across the group (paper Fig. 13: ``<p0, p1: k>`` when
both ranks agree, ``<p0: ..., p1: null>`` when they differ).

The merge is one pass: every rank CTT is walked once, in ascending rank
order, against a single accumulating :class:`MergedCTT`
(:meth:`MergedCTT.add_rank`) — no per-rank tree is ever built, and a
rank at or below the last one taken is refused.  What keeps it linear:

* each vertex of the tree the merge builds has one index of its own,
  ``{payload key: group}`` (:attr:`MergedCTT.index`), so a rank finds
  its group with one dict lookup of the key tuple;
* a rank joins its group by an O(1) append, so rank sets stay sorted
  disjoint lists, stride-compressed lazily and cached until the group
  next changes;
* per-rank timing contributions are *deferred*: leaf groups collect the
  source CTTs' record lists and materialize merged statistics once, in
  the ascending order they joined in, so the walk itself does no
  floating-point work.

Outside the merge a vertex's groups are a plain list in lowest-rank
order (the order the merge founds them in, or the file's order), and
``rank → group`` is a bisection of each group's ranks
(:meth:`MergedVertex.group_of`).

:func:`merge_all` is the one merge; a compressor reaches it through
``IntraProcessCompressor.merged``.  The paper's O(n log P) binary
reduction is a statement about critical-path depth on P nodes; in this
one-process harness the one merge's cost per rank is what
``benchmarks/bench_merge_scaling.py`` measures.  The merge's oracle is
``tests/spec_merge.py``, §IV-B written out naively.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import attrgetter

from repro import obs
from repro.static.cst import BRANCH, CALL, LOOP

from .ctt import CTT, CTTVertex
from .errors import MergeError
from .ranks import ABS, REL, TOR
from .records import CompressedRecord, LeafView
from .sequences import IntSequence


def _loop_signature(counts: IntSequence) -> tuple:
    return ("L", counts.length, tuple(counts.terms))


def _visits_signature(visits: IntSequence) -> tuple:
    return ("B", visits.length, tuple(visits.terms))


def _records_signature(records: list[CompressedRecord]) -> tuple:
    """A leaf's records as an index key: each one's key and occurrence
    fields (a terms list exists only from a record's second term)."""
    return ("R", tuple([
        (r.key, r.start, r.length, r.stride,
         None if r.terms is None else tuple(r.terms))
        for r in records
    ]))


def _leaf_signature(
    records: list[CompressedRecord], rank: int, nranks: int
) -> tuple[list[CompressedRecord], tuple]:
    """``(records, _records_signature(records))`` for one rank's leaf,
    range-checking every relative peer on the way: a REL delta decodes
    inside ``[0, nranks)`` for ``rank`` exactly when it lies in
    ``[-rank, nranks - rank)``.  One pass in the healthy case; the first
    out-of-range delta hands the leaf to :func:`_abs_fallback_records`
    and signs the repaired list instead."""
    lo = -rank
    hi = nranks - rank
    parts = []
    for record in records:
        key = record.key
        if key is not None:
            enc = key[1]
            enc2 = key[2]
            if (enc[0] == REL and not lo <= enc[1] < hi) or (
                enc2[0] == REL and not lo <= enc2[1] < hi
            ):
                records = _abs_fallback_records(records, rank, nranks)
                return records, _records_signature(records)
        terms = record.terms  # as _records_signature
        parts.append((
            key, record.start, record.length, record.stride,
            None if terms is None else tuple(terms),
        ))
    return records, ("R", tuple(parts))


def _abs_fallback_records(
    records: list[CompressedRecord], rank: int, nranks: int
) -> list[CompressedRecord]:
    """Re-encode relative peers that would decode out of ``[0, nranks)``
    for ``rank`` as absolute (copy-on-write: the rank's own list and
    records are left as they are).  An out-of-range REL key can only
    come from an already-damaged CTT (e.g. a corrupted trace file);
    keeping it relative would silently alias onto a *plausible* rank for
    the other members of whatever group it lands in — absolute encoding
    keeps the bogus value rank-independent and loud (replay validation
    and the invariant checker then pinpoint it)."""
    repaired = list(records)
    for i, record in enumerate(records):
        key = record.key
        if key is None:
            continue
        new_key = None
        for slot in (1, 2):
            enc = key[slot]
            if enc[0] == REL and not 0 <= rank + enc[1] < nranks:
                if new_key is None:
                    new_key = list(key)
                new_key[slot] = (ABS, rank + enc[1])
        if new_key is not None:
            fixed = record.copy()
            fixed.key = tuple(new_key)
            repaired[i] = fixed
    return repaired


# ---------------------------------------------------------------------------
# Groups.


class Group:
    """One payload shared by a set of ranks at one merged vertex.

    ``ranks`` is a sorted list; member sets of distinct groups at one
    vertex are disjoint.  A leaf (CALL) group's records come from one of
    two places.  While merging, each joining rank's record list is
    appended to ``sources`` — a reference into its CTT, in ascending
    rank order — and :meth:`finalize` folds them into one list, which a
    rank joining later reopens the sources from.  In a loaded tree the
    group holds its decoded leaf block (``block``, a
    ``serialize.LeafColumns``) and the records are built on first
    access.  Whichever it was, once :attr:`records` has been read that
    list is the truth for every reader — the sources or the block are
    let go, and :meth:`leaf_view` transposes the records instead.
    """

    __slots__ = (
        "ranks", "counts", "visits",
        "_records", "_sources", "_block", "_owns_records", "_rank_seq",
    )

    def __init__(
        self,
        ranks: list[int],
        counts: IntSequence | None = None,
        visits: IntSequence | None = None,
        sources: list[list[CompressedRecord]] | None = None,
        block=None,
    ) -> None:
        self.ranks = ranks
        self.counts = counts
        self.visits = visits
        self._records = None
        self._sources = sources
        self._block = block
        self._owns_records = False
        self._rank_seq: IntSequence | None = None

    # -- merged records (deferred, ascending rank order) -----------------

    @property
    def records(self) -> list[CompressedRecord] | None:
        rec = self._records
        if rec is None:
            if self._sources is not None:
                self.finalize()
                rec = self._records
            elif self._block is not None:
                rec = self._records = self._block.records()
                self._block = None
                registry = obs.active()
                if registry is not None:
                    registry.counter_add(
                        "serialize.records_materialized", len(rec)
                    )
        return rec

    def leaf_view(self) -> LeafView | None:
        """The group's records as the columns the queries reduce, or
        ``None`` without any: the decoded block's own lists while the
        records of a loaded group are unbuilt, the records transposed
        otherwise."""
        block = self._block
        if block is not None:
            return block.view()
        records = self.records
        return LeafView.of_records(records) if records else None

    def _materialize(self) -> list[CompressedRecord]:
        """The first source with every later one's statistics merged in,
        in join order.  A single source is borrowed as it is — per-rank
        CTTs stay immutable — and a list the group does not own is
        copied before anything merges into it."""
        first, *rest = self._sources
        if not rest:
            return first
        if not self._owns_records:
            first = [r.copy() for r in first]
            self._owns_records = True
        for mine, others in zip(first, zip(*rest)):
            mine.merge_stats(others)
        return first

    def finalize(self) -> None:
        """Materialize merged records and drop per-rank source refs.  A
        rank that joins later reopens the group from these records."""
        if self._sources is not None:
            self._records = self._materialize()
            self._sources = None

    def rank_sequence(self) -> IntSequence:
        """Stride-compressed rank set (cached until the group changes)."""
        seq = self._rank_seq
        if seq is None:
            seq = self._rank_seq = IntSequence.from_values(self.ranks)
        return seq


def payload_key(group: Group) -> tuple:
    """The merge's index key for ``group``'s payload as it stands."""
    if group.counts is not None:
        return _loop_signature(group.counts)
    if group.visits is not None:
        return _visits_signature(group.visits)
    return _records_signature(group.records)


class MergedVertex:
    __slots__ = (
        "gid", "kind", "ast_id", "name", "op", "branch_path",
        "children", "groups", "torus",
    )

    def __init__(self, template: CTTVertex) -> None:
        self.gid = template.gid
        self.kind = template.kind
        self.ast_id = template.ast_id
        self.name = template.name
        self.op = template.op
        self.branch_path = template.branch_path
        self.children = [MergedVertex(c) for c in template.children]
        self.groups: list[Group] = []
        #: ``(s, m)`` of every TOR peer at this CALL vertex
        #: (:meth:`MergedCTT.finish`), ``None`` where there is none.
        self.torus: tuple[int, int] | None = None

    def preorder(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def group_of(self, rank: int) -> Group | None:
        """The group holding ``rank``: a bisection of each group's
        ascending rank list (a vertex holds a handful of disjoint
        groups).  Should two hold it, the one inserted last answers."""
        for group in reversed(self.groups):
            ranks = group.ranks
            i = bisect_left(ranks, rank)
            if i < len(ranks) and ranks[i] == rank:
                return group
        return None

    def sorted_groups(self) -> list[Group]:
        """Groups in canonical order (by lowest member rank) — member
        sets are disjoint, so this is an arrival-order-independent total
        order."""
        return sorted(self.groups, key=lambda g: g.ranks[0])


class MergedCTT:
    """The job-wide compressed trace."""

    def __init__(self, root: MergedVertex, nranks_merged: int) -> None:
        self.root = root
        self.nranks_merged = nranks_merged
        #: The merge's own payload index, built by the first
        #: :meth:`add_rank`: ``index[i]`` maps a payload key to its
        #: group at ``vertices()[i]``.  ``None`` on a tree no merge built.
        self.index: list[dict[tuple, Group]] | None = None
        self._vertices: list[MergedVertex] | None = None
        self._last_rank = -1
        #: Populated by ``serialize.loads(..., salvage=True)`` when the
        #: tree was recovered from a damaged file (docs/INTERNALS.md §7).
        self.salvage_info: dict | None = None
        #: Set by ``serialize.loads``: the tree has no payload index, so
        #: it is read-only to the merge.
        self.loaded = False
        #: Set by :meth:`finish`, the final pass: the tree takes no rank.
        self.finished = False
        #: The job's rank count: set by :meth:`finish` (or read from a v9
        #: container), ``None`` before (:meth:`rank_span`).
        self.job_size: int | None = None

    def vertices(self) -> list[MergedVertex]:
        if self._vertices is None:
            self._vertices = list(self.root.preorder())
        return self._vertices

    def rank_span(self) -> int:
        """How many ranks a replayed peer may name: the job size where
        the tree knows it (:meth:`finish`, a v9 container); else
        ``nranks_merged``, or one past the highest member rank where
        that is more (a job that quarantined a middle rank merges fewer
        ranks than it spans — a v7/v8 file cannot tell a quarantined top
        rank)."""
        if self.job_size is not None:
            return self.job_size
        highest = max(
            (g.ranks[-1] for v in self.vertices() for g in v.groups), default=-1
        )
        return max(self.nranks_merged, highest + 1)

    # -- construction -----------------------------------------------------

    def add_rank(self, ctt: CTT, nranks: int | None = None) -> "MergedCTT":
        """Merge one rank's CTT into this tree: a single walk of its
        vertices against ours, each non-empty payload joining (or
        founding) the group its key indexes.  Ranks arrive in ascending
        order, each once, so a join is an O(1) append of the rank (and,
        at a leaf, of its record list), and groups are founded in
        ascending order of their lowest rank."""
        if self.loaded or self.finished:
            raise MergeError(
                "a finished tree does not merge: it keeps no payload index "
                "(opened from a container, or finished by the final pass) — "
                "merge the per-rank CTTs and save the result"
            )
        rank = ctt.rank
        if rank <= self._last_rank:
            raise MergeError(
                f"rank {rank} cannot join after rank {self._last_rank}: "
                "each rank merges once, in ascending order"
            )
        mine_vertices = self.vertices()
        their_vertices = ctt.vertices()
        if len(mine_vertices) != len(their_vertices):
            raise MergeError(
                f"structural mismatch: {len(mine_vertices)} vs "
                f"{len(their_vertices)} vertices (different programs?)"
            )
        if self.index is None:
            self.index = [{} for _ in mine_vertices]
        for dst, src, index in zip(mine_vertices, their_vertices, self.index):
            kind = src.kind
            if dst.gid != src.gid or dst.kind != kind:
                raise MergeError(
                    f"structural mismatch at gid {dst.gid} vs {src.gid}"
                )
            counts = visits = records = None
            if kind == CALL:
                records = src.records
                if not records:
                    continue
                if nranks is None:
                    key = _records_signature(records)
                else:
                    records, key = _leaf_signature(records, rank, nranks)
            elif kind == LOOP:
                counts = src.loop_counts
                if not len(counts):
                    continue
                key = _loop_signature(counts)
            elif kind == BRANCH:
                visits = src.visits
                if not len(visits):
                    continue
                key = _visits_signature(visits)
            else:
                continue
            group = index.get(key)
            if group is None:
                group = index[key] = Group(
                    [rank], counts, visits,
                    sources=None if records is None else [records],
                )
                dst.groups.append(group)
            else:
                group.ranks.append(rank)
                group._rank_seq = None
                if records is not None:  # stats merge deferred
                    sources = group._sources
                    if sources is None:  # finalized by a fold: reopen
                        sources = group._sources = [group._records]
                        group._records = None
                    sources.append(records)
        self._last_rank = rank
        self.nranks_merged += 1
        return self

    def finalize(self) -> "MergedCTT":
        """Materialize every group's merged records.  Idempotent; called
        by :func:`merge_all`."""
        for vertex in self.vertices():
            for group in vertex.groups:
                group.finalize()
        return self

    def fold_rank(self, ctt: CTT, nranks: int | None = None) -> "MergedCTT":
        """Fold one completed rank into this partial tree and release
        its sources (the budget mode's streaming merge,
        docs/INTERNALS.md §14).

        Folding ranks one at a time, finalizing after each, is
        byte-identical to :func:`merge_all` over the same ranks: the
        next rank reopens each group it joins from the records the last
        finalize left, and ``CompressedRecord.merge_stats`` over one
        source is the same float operations as one step of the batch
        fold.
        """
        return self.add_rank(ctt, nranks).finalize()

    def finish(self, nranks: int | None = None) -> "MergedCTT":
        """The final pass, run once where a merge finishes
        (:func:`merge_all`, the budget fold's ``merged()``): finalize
        every group, fix the job size (``nranks``, raised to
        :meth:`rank_span` should a member or the merged count exceed
        it), and unite each CALL vertex's groups that differ only in a
        relative peer wrapping around one grid dimension
        (:func:`_wrap_vertex`).  The payload index of a vertex the pass
        changed is rebuilt, and the tree takes no further rank.
        Idempotent."""
        if self.finished:
            return self
        self.finalize()
        job = self.rank_span()
        if nranks is not None and nranks > job:
            job = nranks
        self.job_size = job
        sizes = _block_sizes(job)
        for at, vertex in enumerate(self.vertices()):
            if (
                vertex.kind == CALL and len(vertex.groups) > 1
                and _wrap_vertex(vertex, sizes)
            ):
                self.index[at] = {
                    payload_key(group): group for group in vertex.groups
                }
        self.finished = True
        return self

    # -- inspection -----------------------------------------------------------

    def vertex_count(self) -> int:
        return len(self.vertices())

    def group_count(self) -> int:
        return sum(len(v.groups) for v in self.vertices())


# ---------------------------------------------------------------------------
# The merge.


def merge_all(
    ctts: list[CTT],
    schedule: str = "tree",
    *,
    nranks: int | None = None,
) -> MergedCTT:
    """Merge every rank's CTT into the job-wide compressed trace: a
    single pass over the ranks, in ascending rank order whatever order
    ``ctts`` lists them in, into one accumulator.  A rank listed twice
    raises :class:`MergeError`.

    ``schedule`` is accepted and ignored.  Kept only because
    ``benchmarks/e2e/batch.py`` passes ``"tree"`` and ``"fold"`` (its
    ``inter.merge_fold_s`` row then times this same pass).

    With ``nranks`` given, record keys whose relative peer would decode
    outside ``[0, nranks)`` for their rank are re-encoded absolute at
    merge time (copy-on-write; healthy traces are untouched and stay
    byte-identical) so a damaged delta cannot silently alias onto a
    plausible rank after grouping.  The tree comes back finished
    (:meth:`MergedCTT.finish`).
    """
    if not ctts:
        raise ValueError("no CTTs to merge")
    ctts = sorted(ctts, key=attrgetter("rank"))
    registry = obs.active()
    with obs.span("inter.merge"):
        if registry is not None:
            registry.counter_add("inter.add_rank", len(ctts))
        result = MergedCTT(MergedVertex(ctts[0].root), 0)
        for ctt in ctts:
            result.add_rank(ctt, nranks)
        result.finish(nranks)
    if registry is not None:
        _publish_merge_metrics(registry, result)
    return result


def _publish_merge_metrics(registry, merged: MergedCTT) -> None:
    registry.counter_add("inter.ranks_merged", merged.nranks_merged)
    registry.counter_add("inter.vertices", merged.vertex_count())
    registry.counter_add("inter.groups", merged.group_count())


# ---------------------------------------------------------------------------
# The final pass: torus-relative peers (docs/INTERNALS.md §6).


def _block_sizes(job: int) -> set[int]:
    """Every block size ``s·m`` a torus may have: the divisors of the
    job size above 1."""
    sizes = set()
    d = 1
    while d * d <= job:
        if not job % d:
            sizes.update((d, job // d))
        d += 1
    sizes.discard(1)
    return sizes


def _skeleton(records: list[CompressedRecord]) -> tuple[tuple, list[int]]:
    """A leaf's payload with each REL delta blanked, and the deltas in
    slot order: groups that share a skeleton agree on everything but
    their deltas, slot for slot."""
    parts = []
    deltas = []
    for rec in records:
        key = rec.key
        enc, enc2 = key[1], key[2]
        if enc[0] == REL:
            deltas.append(enc[1])
            enc = REL
        if enc2[0] == REL:
            deltas.append(enc2[1])
            enc2 = REL
        terms = rec.terms
        parts.append((
            key[0], enc, enc2, key[3:], rec.start, rec.length, rec.stride,
            None if terms is None else tuple(terms),
        ))
    return tuple(parts), deltas


def _candidates(
    classes: list[list[tuple[Group, list[int]]]], sizes: set[int]
) -> list[tuple[int, int]]:
    """The ``(s, m)`` pairs worth trying at one vertex, in tie-break
    order (``s·m``, then ``s``): ``m ≥ 2`` and ``s·m`` a block size that
    is the difference of two REL deltas at one slot of two groups of a
    class (groups agreeing on everything else)."""
    found: set[int] = set()
    for members in classes:
        for column in zip(*[deltas for _, deltas in members]):
            values = set(column)
            if len(values) < 2:
                continue
            if len(values) <= len(sizes):  # few deltas: every difference
                found.update(
                    sizes.intersection([b - a for a in values for b in values])
                )
                continue
            for size in sizes:
                if size not in found and any(d + size in values for d in values):
                    found.add(size)
    return [
        (s, size // s)
        for size in sorted(found)
        for s in range(1, size // 2 + 1)
        if not size % s
    ]


def _residues(ranks: list[int], size: int) -> tuple[int, int]:
    """The lowest and highest place of ``ranks`` in their blocks of
    ``size`` ranks."""
    residues = [rank % size for rank in ranks]
    return min(residues), max(residues)


def _wrap(d: int, s: int, m: int, lo: int, hi: int) -> int | None:
    """The shift ``t`` in ``(-m/2, m/2]`` a REL delta ``d`` becomes for
    members whose places in their blocks of ``s·m`` ranks span
    ``lo..hi``, or ``None``: it stays REL unless ``s`` divides it and
    it keeps every member inside its own block."""
    if d % s or lo + d < 0 or hi + d >= s * m:
        return None
    t = d // s % m
    return t - m if 2 * t > m else t


def _wrapped_deltas(
    deltas: list[int], s: int, m: int, lo: int, hi: int
) -> tuple:
    """A class member's deltas as :func:`_wrap` leaves them, in line:
    each shift modulo ``m``, or (a tuple, never a shift) the delta that
    stays.  Two members of a class have equal payloads after the
    re-encoding exactly when these are equal."""
    size = s * m
    return tuple([
        (d,) if d % s or lo + d < 0 or hi + d >= size else d // s % m
        for d in deltas
    ])


def _wrapped_keys(
    group: Group, s: int, m: int, span: tuple[int, int] | None = None
) -> list[tuple]:
    """``group``'s record keys with each REL delta :func:`_wrap` shifts
    re-encoded ``(TOR, t, s, m)`` (``span``: the members'
    :func:`_residues`, found here if not given)."""
    lo, hi = span or _residues(group.ranks, s * m)

    def wrap(enc):
        if enc[0] != REL:
            return enc
        t = _wrap(enc[1], s, m, lo, hi)
        return enc if t is None else (TOR, t, s, m)

    keys = []
    for rec in group.records:
        key = rec.key
        enc, enc2 = wrap(key[1]), wrap(key[2])
        if enc is not key[1] or enc2 is not key[2]:
            key = (key[0], enc, enc2) + key[3:]
        keys.append(key)
    return keys


def _wrap_vertex(vertex: MergedVertex, sizes: set[int]) -> bool:
    """Re-encode one CALL vertex's wrapping relative peers under the
    ``(s, m)`` that leaves the fewest groups (ties: smaller ``s·m``,
    then smaller ``s``) and unite the groups whose payloads are then
    equal — their ranks joined, their stats folded group by group in
    ascending order of lowest rank.  A vertex no pair shrinks is left
    exactly as it was (``False``).

    Only groups of one class (one :func:`_skeleton`) can become equal,
    and within a class only their deltas differ, so a candidate is
    counted on the classes' wrapped deltas alone."""
    groups = vertex.groups
    by_skeleton: dict[tuple, list] = {}
    for group in groups:
        skeleton, deltas = _skeleton(group.records)
        if deltas:
            by_skeleton.setdefault(skeleton, []).append((group, deltas))
    classes = [members for members in by_skeleton.values() if len(members) > 1]
    if not classes:
        return False
    best = None
    # No candidate unites more than every class into one group.
    most = sum(len(members) - 1 for members in classes)
    places: dict[tuple[int, int], tuple[int, int]] = {}
    for s, m in _candidates(classes, sizes):
        size = s * m
        saved = 0
        for members in classes:
            wrapped = set()
            for group, deltas in members:
                at = (id(group), size)
                span = places.get(at)
                if span is None:
                    span = places[at] = _residues(group.ranks, size)
                wrapped.add(_wrapped_deltas(deltas, s, m, *span))
            saved += len(members) - len(wrapped)
        if saved > (0 if best is None else best[0]):
            best = (saved, s, m)
            if saved == most:  # a later candidate can only tie
                break
    if best is None:
        return False
    _, s, m = best
    size = s * m
    # Only a class's groups unite, those with equal wrapped deltas; the
    # first of each (its lowest rank) keeps its place in the list.
    joiners: dict[int, list[Group]] = {}
    for members in classes:
        firsts: dict[tuple, Group] = {}
        for group, deltas in members:
            first = firsts.setdefault(
                _wrapped_deltas(deltas, s, m, *places[(id(group), size)]),
                group,
            )
            if first is not group:
                joiners.setdefault(id(first), []).append(group)
    joined = {id(group) for rest in joiners.values() for group in rest}
    kept = []
    for group in groups:
        if id(group) in joined:
            continue
        rest = joiners.get(id(group), ())
        keys = _wrapped_keys(group, s, m, places.get((id(group), size)))
        records = group.records
        if rest or any(key is not rec.key for key, rec in zip(keys, records)):
            records = [rec.copy() for rec in records]
            for rec, key in zip(records, keys):
                rec.key = key
            for rec, others in zip(records, zip(*[g.records for g in rest])):
                rec.merge_stats(others)
            ranks = list(chain.from_iterable(g.ranks for g in (group, *rest)))
            ranks.sort()
            group = Group(ranks, sources=[records])
            group.finalize()
        kept.append(group)
    vertex.groups = kept
    vertex.torus = (s, m)
    return True
