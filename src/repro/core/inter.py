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
from operator import attrgetter

from repro import obs
from repro.static.cst import BRANCH, CALL, LOOP

from .ctt import CTT, CTTVertex
from .errors import MergeError
from .ranks import ABS, REL
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
        "children", "groups",
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

    def vertices(self) -> list[MergedVertex]:
        if self._vertices is None:
            self._vertices = list(self.root.preorder())
        return self._vertices

    def rank_span(self) -> int:
        """How many ranks a replayed peer may name: ``nranks_merged``, or
        one past the highest member rank where that is more (a job that
        quarantined a middle rank merges fewer ranks than it spans).  A
        quarantined top rank is not seen: no job size is stored."""
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
        if self.loaded:
            raise MergeError(
                "a tree opened from a container does not merge: it keeps "
                "no payload index — merge the per-rank CTTs and save the "
                "result"
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
    plausible rank after grouping.
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
        result.finalize()
    if registry is not None:
        _publish_merge_metrics(registry, result)
    return result


def _publish_merge_metrics(registry, merged: MergedCTT) -> None:
    registry.counter_add("inter.ranks_merged", merged.nranks_merged)
    registry.counter_add("inter.vertices", merged.vertex_count())
    registry.counter_add("inter.groups", merged.group_count())
