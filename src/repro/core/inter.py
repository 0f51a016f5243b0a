"""Inter-process trace compression (paper §IV-B).

Because every rank's CTT mirrors the *same* static CST, merging
compressed traces is a vertex-by-vertex walk — O(n) in the tree size —
instead of the O(n²) sequence alignment dynamic-only tools need.  At each
vertex, per-rank payloads that are identical (ignoring timing) collapse
into one *group* holding the payload once plus the set of ranks; timing
statistics merge across the group (paper Fig. 13: ``<p0, p1: k>`` when
both ranks agree, ``<p0: ..., p1: null>`` when they differ).

The serial merge is one pass: every rank CTT is walked once against a
single accumulating :class:`MergedCTT` (:meth:`MergedCTT.add_rank`) —
no per-rank tree is ever built.  What keeps it linear:

* payload signatures are *interned* per merge session — group lookup
  compares pointers with a cached hash, never re-hashing nested tuples;
* a rank arriving in ascending order joins its group by an O(1) append;
  rank sets stay sorted disjoint lists, stride-compressed lazily and
  cached until the group next changes;
* per-rank timing contributions are *deferred*: groups collect references
  into the source CTTs and materialize merged statistics once, in
  ascending rank order — so every arrival order produces bit-identical
  merged statistics, and the walk itself does no floating-point work;
* ``rank → group`` lookups use a lazily built per-vertex map (O(1) per
  query during replay instead of a scan over all groups).

:func:`merge_all` is the one merge; a compressor reaches it through
``IntraProcessCompressor.merged``.  The paper's O(n log P) binary
reduction is a statement about critical-path depth on P nodes; in this
one-process harness it is the depth arithmetic in
``benchmarks/bench_ablations.py``.  Pairwise :meth:`MergedCTT.absorb`
stays as the reference the tests and ``bench_merge_scaling`` compare the
single pass against.
"""

from __future__ import annotations

from repro import obs
from repro.static.cst import BRANCH, CALL, LOOP

from .ctt import CTT, CTTVertex
from .errors import MergeError
from .ranks import ABS, REL
from .records import CompressedRecord, LeafView
from .sequences import IntSequence


# ---------------------------------------------------------------------------
# Interned payload signatures.


class Signature:
    """An interned payload signature: hashes once, compares by pointer
    within a merge session (falling back to tuple equality across
    sessions, e.g. when comparing trees merged independently).

    The hash is the key tuple's own — the one the intern table's
    ``dict.get(key)`` computes anyway — so it carries the process's
    ``PYTHONHASHSEED`` salt.  Nothing ordered depends on it: groups are
    written by lowest member rank (:meth:`MergedVertex.sorted_groups`),
    statistics fold in ascending rank order, and every dict here is
    read in insertion order or by key.

    A leaf group of a *loaded* tree is signed :meth:`of_block` instead:
    hashed by its place at its vertex, its key built from the leaf block
    as decoded, the first time something compares it — so equal keys no
    longer mean equal hashes, which is why nothing merges into or out of
    a loaded tree (:meth:`MergedCTT.add_rank`)."""

    __slots__ = ("_key", "_hash", "_block")

    def __init__(self, key: tuple) -> None:
        self._key = key
        self._hash = hash(key)

    @classmethod
    def of_block(cls, block, place: int) -> "Signature":
        sig = cls.__new__(cls)
        sig._key = None
        sig._hash = place
        sig._block = block
        return sig

    @property
    def key(self) -> tuple:
        key = self._key
        if key is None:
            key = self._key = self._block.signature_key()
            self._block = None
        return key

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Signature):
            return self.key == other.key
        return NotImplemented

    def __repr__(self) -> str:
        return f"Signature({self.key!r})"


class InternTable:
    """Signature intern pool for one merge session.

    ``hits``/``misses`` count lookups that found / created an entry —
    the interned-signature hit rate the observability layer reports.
    (One integer add per *group*, not per event; not worth gating.)
    """

    __slots__ = ("_table", "hits", "misses")

    def __init__(self) -> None:
        self._table: dict[tuple, Signature] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, key: tuple) -> Signature:
        sig = self._table.get(key)
        if sig is None:
            self.misses += 1
            sig = Signature(key)
            self._table[key] = sig
        else:
            self.hits += 1
        return sig

    def canon(self, sig: Signature) -> Signature:
        """Canonical representative for a foreign Signature (absorbing a
        tree merged in another session)."""
        cached = self._table.get(sig.key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        self._table[sig.key] = sig
        return sig


def _loop_signature(counts: IntSequence) -> tuple:
    return ("L", counts.length, tuple(counts.terms))


def _visits_signature(visits: IntSequence) -> tuple:
    return ("B", visits.length, tuple(visits.terms))


def _records_signature(records: list[CompressedRecord]) -> tuple:
    return ("R", tuple((r.key, r.occurrences.length, tuple(r.occurrences.terms)) for r in records))


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
        occ = record.occurrences
        parts.append((key, occ.length, tuple(occ.terms)))
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
    three places.  Handed over (``records``), they are simply held.
    While merging, the per-rank timing contributions are kept as
    ``(rank, records)`` references into the source CTTs (``sources``),
    aligned with ``ranks``; merged records materialize lazily, folding
    statistics in ascending rank order, so the result is independent of
    the order ranks joined in.  In a loaded tree the group holds its
    decoded leaf block (``block``, a ``serialize.LeafColumns``) and the
    records are built on first access.  Whichever it was, once
    :attr:`records` has been read that list is the truth for every
    reader — the block is let go, and :meth:`leaf_view` transposes the
    records instead.
    """

    __slots__ = (
        "signature", "ranks", "counts", "visits",
        "_records", "_sources", "_block", "_owns_records", "_rank_seq",
    )

    def __init__(
        self,
        signature,
        ranks: list[int],
        counts: IntSequence | None = None,
        visits: IntSequence | None = None,
        records: list[CompressedRecord] | None = None,
        sources: list[tuple[int, list[CompressedRecord]]] | None = None,
        block=None,
    ) -> None:
        self.signature = signature
        self.ranks = ranks
        self.counts = counts
        self.visits = visits
        self._records = records
        self._sources = sources
        self._block = block
        self._owns_records = False
        self._rank_seq: IntSequence | None = None

    # -- merged records (deferred, canonical rank order) -----------------

    @property
    def records(self) -> list[CompressedRecord] | None:
        rec = self._records
        if rec is None:
            if self._sources is not None:
                rec = self._records = self._materialize()
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
        sources = self._sources
        if len(sources) == 1:
            # Borrow the single rank's record list — per-rank CTTs stay
            # immutable; a copy happens only if another rank ever joins.
            return sources[0][1]
        merged = [r.copy() for r in sources[0][1]]
        self._owns_records = True
        rest = [recs for _, recs in sources[1:]]
        for i, mine in enumerate(merged):
            mine.duration.merge_many([recs[i].duration for recs in rest])
            mine.pre_gap.merge_many([recs[i].pre_gap for recs in rest])
        return merged

    def finalize(self) -> None:
        """Materialize merged records and drop per-rank source refs."""
        if self._sources is not None:
            if self._records is None:
                self._records = self._materialize()
            self._sources = None

    # -- absorption ------------------------------------------------------

    def absorb_ranks(self, other: "Group") -> None:
        """Take over ``other``'s (disjoint) member ranks, keeping the
        list sorted — a concat for contiguous rank chunks, else a sort
        of two sorted runs (linear)."""
        a, b = self.ranks, other.ranks
        sa, sb = self._sources, other._sources
        deferred = sa is not None and sb is not None
        if a[-1] < b[0]:
            a.extend(b)
            if deferred:
                sa.extend(sb)
        else:
            self.ranks = sorted(a + b)  # disjoint, rarely out of order
            if deferred:
                merged_sources = sa + sb
                merged_sources.sort(key=lambda s: s[0])
                self._sources = merged_sources
        if deferred:
            self._records = None
            self._owns_records = False
        else:
            self._absorb_records_eager(other)
        self._rank_seq = None

    def _absorb_records_eager(self, other: "Group") -> None:
        """Stats merge for groups whose per-rank sources are gone
        (finalized — ``fold_rank`` after each rank): copy-on-write,
        merge in absorb order."""
        mine, theirs = self.records, other.records
        if mine is None or theirs is None:
            return
        if not self._owns_records:
            mine = self._records = [r.copy() for r in mine]
            self._owns_records = True
        for m, t in zip(mine, theirs):
            m.duration.merge(t.duration)
            m.pre_gap.merge(t.pre_gap)

    def rank_sequence(self) -> IntSequence:
        """Stride-compressed rank set (cached until the group changes)."""
        seq = self._rank_seq
        if seq is None:
            seq = self._rank_seq = IntSequence.from_values(self.ranks)
        return seq


class MergedVertex:
    __slots__ = (
        "gid", "kind", "ast_id", "name", "op", "branch_path",
        "children", "groups", "_by_rank",
    )

    def __init__(self, template: CTTVertex) -> None:
        self.gid = template.gid
        self.kind = template.kind
        self.ast_id = template.ast_id
        self.name = template.name
        self.op = template.op
        self.branch_path = template.branch_path
        self.children = [MergedVertex(c) for c in template.children]
        self.groups: dict[Signature, Group] = {}
        self._by_rank: dict[int, Group] | None = None

    def preorder(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def group_of(self, rank: int) -> Group | None:
        """O(1) rank → group lookup (lazily built map, rebuilt after the
        vertex next changes)."""
        by_rank = self._by_rank
        if by_rank is None:
            by_rank = self._by_rank = {}
            for group in self.groups.values():
                for r in group.ranks:
                    by_rank[r] = group
        return by_rank.get(rank)

    def add_group(self, group: Group) -> None:
        existing = self.groups.get(group.signature)
        if existing is None:
            self.groups[group.signature] = group
        else:
            existing.absorb_ranks(group)
        self._by_rank = None

    def sorted_groups(self) -> list[Group]:
        """Groups in canonical order (by lowest member rank) — member
        sets are disjoint, so this is an arrival-order-independent total
        order."""
        return sorted(self.groups.values(), key=lambda g: g.ranks[0])


class MergedCTT:
    """The job-wide compressed trace."""

    def __init__(
        self,
        root: MergedVertex,
        nranks_merged: int,
        interns: InternTable | None = None,
    ) -> None:
        self.root = root
        self.nranks_merged = nranks_merged
        self.interns = interns if interns is not None else InternTable()
        self._vertices: list[MergedVertex] | None = None
        #: Populated by ``serialize.loads(..., salvage=True)`` when the
        #: tree was recovered from a damaged file (docs/INTERNALS.md §7).
        self.salvage_info: dict | None = None
        #: Set by ``serialize.loads``: the leaf groups are signed by
        #: place (:meth:`Signature.of_block`), so the tree is read-only
        #: to the merge.
        self.loaded = False

    def vertices(self) -> list[MergedVertex]:
        if self._vertices is None:
            self._vertices = list(self.root.preorder())
        return self._vertices

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rank(
        cls,
        ctt: CTT,
        interns: InternTable | None = None,
        nranks: int | None = None,
    ) -> "MergedCTT":
        return cls(MergedVertex(ctt.root), 0, interns).add_rank(ctt, nranks)

    def add_rank(self, ctt: CTT, nranks: int | None = None) -> "MergedCTT":
        """Merge one rank's CTT into this tree: a single walk of its
        vertices against ours, each non-empty payload joining (or
        founding) the group with its interned signature.  Ranks arriving
        in ascending order join by an O(1) append; any other order, and
        groups already finalized, take :meth:`MergedVertex.add_group`."""
        self._refuse_loaded(self)
        mine_vertices = self.vertices()
        their_vertices = ctt.vertices()
        if len(mine_vertices) != len(their_vertices):
            raise MergeError(
                f"structural mismatch: {len(mine_vertices)} vs "
                f"{len(their_vertices)} vertices (different programs?)"
            )
        intern = self.interns.intern
        rank = ctt.rank
        for dst, src in zip(mine_vertices, their_vertices):
            kind = src.kind
            if dst.gid != src.gid or dst.kind != kind:
                raise MergeError(
                    f"structural mismatch at gid {dst.gid} vs {src.gid}"
                )
            counts = visits = sources = None
            if kind == CALL:
                records = src.records
                if not records:
                    continue
                if nranks is None:
                    signature = intern(_records_signature(records))
                else:
                    records, key = _leaf_signature(records, rank, nranks)
                    signature = intern(key)
                sources = [(rank, records)]  # stats merge deferred
            elif kind == LOOP:
                counts = src.loop_counts
                if not len(counts):
                    continue
                signature = intern(_loop_signature(counts))
            elif kind == BRANCH:
                visits = src.visits
                if not len(visits):
                    continue
                signature = intern(_visits_signature(visits))
            else:
                continue
            group = dst.groups.get(signature)
            if group is not None and group.ranks[-1] < rank and (
                sources is None or group._sources is not None
            ):
                group.ranks.append(rank)
                if sources is not None:
                    group._sources.append(sources[0])
                    group._records = None
                    group._owns_records = False
                group._rank_seq = None
                dst._by_rank = None
            else:  # founds the group, or merges out of order / eagerly
                dst.add_group(
                    Group(signature, [rank], counts, visits, sources=sources)
                )
        self.nranks_merged += 1
        return self

    # -- merging ------------------------------------------------------------

    @staticmethod
    def _refuse_loaded(*trees: "MergedCTT") -> None:
        if any(tree.loaded for tree in trees):
            raise MergeError(
                "a tree opened from a container does not merge: its leaf "
                "groups are signed by place, not by payload — merge the "
                "per-rank CTTs and save the result"
            )

    def absorb(self, other: "MergedCTT") -> "MergedCTT":
        """Merge another merged tree into this one (O(n) vertex walk) —
        the pairwise reference the single pass is tested against."""
        self._refuse_loaded(self, other)
        mine_vertices = self.vertices()
        their_vertices = other.vertices()
        if len(mine_vertices) != len(their_vertices):
            raise MergeError(
                f"structural mismatch: {len(mine_vertices)} vs "
                f"{len(their_vertices)} vertices (different programs?)"
            )
        canon = self.interns.canon
        foreign = other.interns is not self.interns
        for mine, theirs in zip(mine_vertices, their_vertices):
            if mine.gid != theirs.gid or mine.kind != theirs.kind:
                raise MergeError(
                    f"structural mismatch at gid {mine.gid} vs {theirs.gid}"
                )
            if theirs.groups:
                for group in theirs.groups.values():
                    if foreign:
                        group.signature = canon(group.signature)
                    mine.add_group(group)
        self.nranks_merged += other.nranks_merged
        return self

    def finalize(self) -> "MergedCTT":
        """Materialize every group's merged records in canonical rank
        order.  Idempotent; called by :func:`merge_all` so the result
        does not depend on the order the ranks arrived in."""
        for vertex in self.vertices():
            for group in vertex.groups.values():
                group.finalize()
        return self

    def fold_rank(self, ctt: CTT, nranks: int | None = None) -> "MergedCTT":
        """Incrementally fold one completed rank into this partial tree
        and release its sources (the budget mode's streaming merge,
        docs/INTERNALS.md §14).

        Byte-identity invariant: folding ranks one at a time **in
        ascending rank order**, finalizing after each fold, performs the
        exact float-op sequence of :func:`merge_all` — each fold's eager
        stats merge (:meth:`Group._absorb_records_eager`) replays the
        copy-then-merge-ascending recurrence that deferred
        materialization (:meth:`Group._materialize`) runs at the end.
        Folding out of ascending order would reassociate the Welford
        combines and break bit-identity; the caller
        (:class:`~repro.core.budget.RankTable`) enforces the ordering.
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
    single pass over the ranks into one accumulator; group statistics
    always materialize in ascending rank order.

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
    interns = merged.interns
    registry.counter_add("inter.ranks_merged", merged.nranks_merged)
    registry.counter_add("inter.vertices", merged.vertex_count())
    registry.counter_add("inter.groups", merged.group_count())
    registry.counter_add("inter.intern_hits", interns.hits)
    registry.counter_add("inter.intern_misses", interns.misses)
    hits = registry.counters.get("inter.intern_hits", 0)
    misses = registry.counters.get("inter.intern_misses", 0)
    if hits + misses:
        registry.gauge_set("inter.intern_hit_rate", hits / (hits + misses))
