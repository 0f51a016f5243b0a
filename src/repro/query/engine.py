"""Decompression-free queries over merged CTTs.

CYPRESS's payoff (paper §VII-D) is that analyses read the *compressed*
trace: the merged CTT already is a complete, queryable description of
every rank's behaviour — stride-compressed loop counts, branch visit
sets, rank-set groups and per-leaf records.  Every function here walks
those structures directly; none emits a single replayed event, so query
cost is proportional to the compressed size, not the trace length
("Data Race Detection on Compressed Traces" makes the same move for
happens-before analysis).

Queries:

* :func:`traffic` — byte/message aggregation by vertex, op, or
  (src, dst) rank pair (the communication matrix generalized);
* :func:`ordering` — does every event of one call site precede every
  event of another, for a given rank?  Answered from preorder position,
  loop-nesting intervals and visit counts;
* :func:`rank_profile` — one rank's per-op calls/bytes/time, folded
  from the groups the rank belongs to;
* :func:`critical_leaves` — the top-k time-weighted call sites with
  their structural paths (the hotspot view, without the tree render).

Every query has a replay-oracle twin in :mod:`repro.query.oracle` that
computes the same answer from ``decompress_all`` — slow, trivially
correct, and used by the differential test layer to pin these
implementations down.

Ordering semantics
------------------

``ordering(merged, a, b, rank)`` classifies the relative order of the
events rank ``rank`` emitted at leaves ``a`` and ``b``:

* ``"before"`` — every a-event precedes every b-event;
* ``"after"`` — the mirror image;
* ``"interleaved"`` — neither (the loop around them alternates);
* ``"only-a"`` / ``"only-b"`` / ``"neither"`` — one or both leaves
  emitted nothing for this rank.

The structural computation: a leaf fires exactly once per execution of
its parent's body (occurrence sets exactly cover the visit range), so
the set of *lowest-common-ancestor body executions* in which a leaf
fires is the image of ``{0..count-1}`` under the monotone maps induced
by the loop-count and branch-visit sequences on the path up to the LCA.
Min/max of that image — computed by O(terms) arithmetic on the stride
tuples, never by expansion — plus child order inside one body execution
decide the relation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, attrgetter, mul

from repro import obs
from repro.core.ranks import try_decode_peer
from repro.core.sequences import IntSequence
from repro.static.cst import BRANCH, CALL, LOOP

from .paths import QueryError, TreeIndex

#: Point-to-point send ops charged to a (src, dst) cell — the same set
#: :mod:`repro.analysis.patterns` uses for the communication matrix.
SEND_OPS = frozenset({"MPI_Send", "MPI_Isend", "MPI_Sendrecv"})

_NBYTES = 5  # record-key slot (see repro.core.records)
_MEAN = attrgetter("mean")

#: Float fields of an engine answer and of its replay oracle agree to
#: this relative/absolute tolerance (:mod:`repro.query.oracle`).
AGREEMENT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Result types.


@dataclass(frozen=True)
class Traffic:
    """Aggregated communication volume for one grouping key."""

    messages: int = 0
    nbytes: int = 0


@dataclass(frozen=True)
class OrderingResult:
    gid_a: int
    gid_b: int
    rank: int
    relation: str  # before | after | interleaved | only-a | only-b | neither
    count_a: int
    count_b: int

    def format(self) -> str:
        rel = {
            "before": "every event of A precedes every event of B",
            "after": "every event of B precedes every event of A",
            "interleaved": "events of A and B interleave",
            "only-a": "only A emitted events",
            "only-b": "only B emitted events",
            "neither": "neither leaf emitted events",
        }[self.relation]
        return (
            f"rank {self.rank}: A=gid{self.gid_a} ({self.count_a} events) "
            f"vs B=gid{self.gid_b} ({self.count_b} events): {rel}"
        )


@dataclass
class OpProfile:
    op: str
    calls: int = 0
    nbytes: int = 0
    time_us: float = 0.0
    gap_us: float = 0.0


@dataclass
class RankProfile:
    rank: int
    events: int = 0
    comm_us: float = 0.0
    gap_us: float = 0.0
    ops: dict[str, OpProfile] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"rank {self.rank}: {self.events} events, "
            f"{self.comm_us / 1e3:.2f} ms comm, "
            f"{self.gap_us / 1e3:.2f} ms compute gaps",
            f"  {'op':16s} {'calls':>8s} {'bytes':>12s} {'time(ms)':>10s}",
        ]
        for op in sorted(self.ops, key=lambda o: -self.ops[o].time_us):
            p = self.ops[op]
            lines.append(
                f"  {op:16s} {p.calls:8d} {p.nbytes:12d} "
                f"{p.time_us / 1e3:10.2f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CriticalLeaf:
    gid: int
    op: str
    depth: int
    calls: int
    total_us: float
    path: str


# ---------------------------------------------------------------------------
# Shared helpers.


def rank_count(merged) -> int:
    """Highest member rank across all groups, plus one (0 for an empty
    tree) — the rank-space size queries validate decoded peers against
    when the caller does not pass ``nprocs`` explicitly."""
    highest = -1
    for vertex in merged.vertices():
        for group in vertex.groups.values():
            if group.ranks and group.ranks[-1] > highest:
                highest = group.ranks[-1]
    return highest + 1


def leaf_time(vertex) -> tuple[float, int]:
    """(total communication time, dynamic call count) of one merged
    leaf, summed over every rank of every group — the hotspot weight."""
    total = 0.0
    calls = 0
    for group in vertex.groups.values():
        view = group.leaf_view()
        if view is None:
            continue
        total += sum([d.mean * d.count for d in view.durations])
        calls += sum(view.lengths) * len(group.ranks)
    return total, calls


def _volume(view) -> int:
    """Send + receive payload bytes of one member rank."""
    return sum(map(mul, view.lengths, map(add, view.nbytes, view.nbytes2)))


def _count_queries(registry, name: str, vertices: int = 0, records: int = 0):
    if registry is None:
        return
    registry.counter_add("query.calls")
    registry.counter_add(f"query.{name}.calls")
    if vertices:
        registry.counter_add("query.vertices", vertices)
    if records:
        registry.counter_add("query.records", records)


# ---------------------------------------------------------------------------
# traffic.


def traffic(
    merged,
    group_by: str = "op",
    nprocs: int | None = None,
) -> dict:
    """Aggregate message counts and payload bytes straight from the
    merged records.

    ``group_by``:

    * ``"vertex"`` — keys are leaf GIDs; every op counts; bytes are
      send+recv payload (``nbytes + nbytes2``);
    * ``"op"`` — same totals keyed by MPI op name;
    * ``"rank_pair"`` — keys are ``(src, dst)`` tuples; only the
      :data:`SEND_OPS` count, with send-side bytes — the communication
      matrix as a sparse dict.  A destination decoding outside
      ``[0, nprocs)`` cannot be charged to a cell and is counted in the
      ``query.out_of_range_peers`` counter (damaged trace).

    ``nprocs`` defaults to :func:`rank_count` of the tree.
    """
    if group_by not in ("vertex", "op", "rank_pair"):
        raise ValueError(f"unknown traffic grouping {group_by!r}")
    registry = obs.active()
    with obs.span("query.traffic"):
        # Plain int sums per cell; the frozen results are built once, at
        # the end.  Both dicts gain a key together, so they stay aligned.
        msgs: dict = {}
        vol: dict = {}
        records_seen = 0
        dropped = 0
        if group_by == "rank_pair" and nprocs is None:
            nprocs = rank_count(merged)
        vertices = merged.vertices()
        for vertex in vertices:
            if vertex.kind != CALL or not vertex.groups:
                continue
            for group in vertex.groups.values():
                if group_by == "rank_pair":
                    seen, lost = _pair_traffic(group, nprocs, msgs, vol)
                    records_seen += seen
                    dropped += lost
                    continue
                view = group.leaf_view()
                if view is None:
                    continue
                if registry is not None:  # records that occur at all
                    records_seen += len(view.lengths) - view.lengths.count(0)
                nmembers = len(group.ranks)
                parts = (
                    [(vertex.gid, view)] if group_by == "vertex"
                    else view.by_op()
                )
                for cell, part in parts:
                    messages = sum(part.lengths) * nmembers
                    if not messages:
                        continue
                    msgs[cell] = msgs.get(cell, 0) + messages
                    vol[cell] = vol.get(cell, 0) + _volume(part) * nmembers
        out = {
            cell: Traffic(messages=n, nbytes=vol[cell])
            for cell, n in msgs.items()
        }
        _count_queries(registry, "traffic", len(vertices), records_seen)
        if dropped and registry is not None:
            registry.counter_add("query.out_of_range_peers", dropped)
        return out


def _pair_traffic(
    group, nprocs: int, msgs: dict, vol: dict
) -> tuple[int, int]:
    """Charge a leaf group's sends to their ``(src, dst)`` cells, record
    by record (a peer decodes per member rank): ``(records, lost)``."""
    seen = dropped = 0
    for record in group.records or ():
        key = record.key
        count = record.occurrences.length
        if count == 0:
            continue
        seen += 1
        if key[0] not in SEND_OPS:
            continue
        nbytes = count * key[_NBYTES]
        for rank in group.ranks:
            dst, ok = try_decode_peer(key[1], rank, nprocs)
            if not ok or not 0 <= dst < nprocs:
                dropped += count
                continue
            cell = (rank, dst)
            msgs[cell] = msgs.get(cell, 0) + count
            vol[cell] = vol.get(cell, 0) + nbytes
    return seen, dropped


# ---------------------------------------------------------------------------
# ordering.


def _leaf_event_count(vertex, rank: int) -> int:
    """Events ``rank`` emitted at a merged leaf = total occurrences of
    its group's records (occurrence sets exactly cover the visit
    range)."""
    group = vertex.group_of(rank)
    view = group.leaf_view() if group is not None else None
    return sum(view.lengths) if view is not None else 0


def _activation_of(counts: IntSequence, j: int) -> int:
    """Which activation (position in ``counts``) contains body-execution
    ``j``?  Pure stride-tuple arithmetic: O(terms · log max-count)."""
    base = 0  # activations before the current term
    cum = 0  # body executions before the current term
    for start, count, stride in counts.terms:
        term_total = count * start + stride * (count * (count - 1) // 2)
        if j < cum + term_total:
            j2 = j - cum
            # prefix(i) = executions before activation i within the term;
            # nondecreasing, so binary-search the largest i with
            # prefix(i) <= j2.
            lo, hi = 0, count - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                prefix = mid * start + stride * (mid * (mid - 1) // 2)
                if prefix <= j2:
                    lo = mid
                else:
                    hi = mid - 1
            return base + lo
        cum += term_total
        base += count
    raise QueryError(
        f"body-execution index {j} outside the recorded iteration space "
        f"({cum} executions)"
    )


def _exec_interval(
    index: TreeIndex, leaf, lca_gid: int, rank: int, count: int
) -> tuple[int, int, int]:
    """Map a leaf's event range onto LCA-body-execution indices.

    Returns ``(first_exec, last_exec, top_child_pos)`` where the execs
    index executions of the LCA's body and ``top_child_pos`` is the
    child position (inside the LCA) of the subtree holding the leaf.
    """
    lo, hi = 0, count - 1  # indexes executions of the leaf's parent body
    vertex = leaf
    parent = index.parent(vertex.gid)
    while parent is not None and parent.gid != lca_gid:
        vertex = parent
        group = vertex.group_of(rank) if vertex.kind in (LOOP, BRANCH) else None
        if vertex.kind == LOOP:
            counts = group.counts if group is not None else None
            if counts is None:
                raise QueryError(
                    f"rank {rank} fired leaf gid {leaf.gid} but loop gid "
                    f"{vertex.gid} recorded no iterations for it"
                )
            lo = _activation_of(counts, lo)
            hi = _activation_of(counts, hi)
        elif vertex.kind == BRANCH:
            visits = group.visits if group is not None else None
            if visits is None:
                raise QueryError(
                    f"rank {rank} fired leaf gid {leaf.gid} but branch gid "
                    f"{vertex.gid} recorded no visits for it"
                )
            lo = visits.value_at(lo)
            hi = visits.value_at(hi)
        parent = index.parent(vertex.gid)
    if parent is None:
        raise QueryError(f"gid {lca_gid} is not an ancestor of {leaf.gid}")
    return lo, hi, index.child_pos[vertex.gid]


def ordering(
    merged,
    gid_a: int,
    gid_b: int,
    rank: int,
    index: TreeIndex | None = None,
) -> OrderingResult:
    """Happens-before between two call sites for one rank, answered
    from the compressed structure (see the module docstring for the
    exact semantics and the derivation)."""
    registry = obs.active()
    with obs.span("query.ordering"):
        idx = index if index is not None else TreeIndex(merged)
        leaf_a = idx.call_leaf(gid_a)
        leaf_b = idx.call_leaf(gid_b)
        count_a = _leaf_event_count(leaf_a, rank)
        count_b = _leaf_event_count(leaf_b, rank)
        _count_queries(registry, "ordering")

        def result(relation: str) -> OrderingResult:
            return OrderingResult(
                gid_a=gid_a, gid_b=gid_b, rank=rank, relation=relation,
                count_a=count_a, count_b=count_b,
            )

        if count_a == 0 and count_b == 0:
            return result("neither")
        if count_b == 0:
            return result("only-a")
        if count_a == 0:
            return result("only-b")
        if gid_a == gid_b:
            return result("interleaved")
        lca = idx.lca_gid(gid_a, gid_b)
        lo_a, hi_a, pos_a = _exec_interval(idx, leaf_a, lca, rank, count_a)
        lo_b, hi_b, pos_b = _exec_interval(idx, leaf_b, lca, rank, count_b)
        if hi_a < lo_b or (hi_a == lo_b and pos_a < pos_b):
            return result("before")
        if hi_b < lo_a or (hi_b == lo_a and pos_b < pos_a):
            return result("after")
        return result("interleaved")


# ---------------------------------------------------------------------------
# rank_profile.


def rank_profile(merged, rank: int) -> RankProfile:
    """One rank's per-op communication profile, folded from the groups
    it belongs to.  Timing is the group statistics the replay would
    carry (``mean × count``); calls and bytes are exact."""
    registry = obs.active()
    with obs.span("query.rank_profile"):
        profile = RankProfile(rank=rank)
        records_seen = 0
        vertices = merged.vertices()
        for vertex in vertices:
            if vertex.kind != CALL or not vertex.groups:
                continue
            group = vertex.group_of(rank)
            view = group.leaf_view() if group is not None else None
            if view is None:
                continue
            if registry is not None:
                records_seen += len(view.lengths) - view.lengths.count(0)
            for op, part in view.by_op():
                lengths = part.lengths
                calls = sum(lengths)
                if not calls:
                    continue
                entry = profile.ops.get(op)
                if entry is None:
                    entry = profile.ops[op] = OpProfile(op=op)
                entry.calls += calls
                entry.nbytes += _volume(part)
                time_us = sum(map(mul, lengths, map(_MEAN, part.durations)))
                gap_us = sum(map(mul, lengths, map(_MEAN, part.gaps)))
                entry.time_us += time_us
                entry.gap_us += gap_us
                profile.events += calls
                profile.comm_us += time_us
                profile.gap_us += gap_us
        _count_queries(registry, "rank_profile", len(vertices), records_seen)
        return profile


# ---------------------------------------------------------------------------
# critical_leaves.


def critical_leaves(
    merged, k: int = 10, index: TreeIndex | None = None
) -> list[CriticalLeaf]:
    """The ``k`` most communication-time-expensive call sites, with
    their structural paths, ranked by :func:`rank_leaves`."""
    registry = obs.active()
    with obs.span("query.critical_leaves"):
        idx = index if index is not None else TreeIndex(merged)
        leaves: list[CriticalLeaf] = []
        vertices = merged.vertices()
        for vertex in vertices:
            if vertex.kind != CALL or not vertex.groups:
                continue
            total_us, calls = leaf_time(vertex)
            if calls == 0:
                continue
            leaves.append(CriticalLeaf(
                gid=vertex.gid,
                op=vertex.op or vertex.name or "?",
                depth=idx.depth[vertex.gid],
                calls=calls,
                total_us=total_us,
                path=idx.path(vertex.gid),
            ))
        _count_queries(registry, "critical_leaves", len(vertices))
        return rank_leaves(leaves, k)


def rank_leaves(leaves: list[CriticalLeaf], k: int) -> list[CriticalLeaf]:
    """The one ranking engine and oracle share: descending total time,
    where neighbouring totals within :data:`AGREEMENT_TOL` count as tied
    (the two sum the same times in different orders, so totals that are
    equal in exact arithmetic differ in the last ulps) and ties break
    toward the lower GID."""
    ranked: list[CriticalLeaf] = []
    tied: list[CriticalLeaf] = []
    for leaf in sorted(leaves, key=lambda c: -c.total_us):
        if tied and not math.isclose(
            tied[-1].total_us, leaf.total_us,
            rel_tol=AGREEMENT_TOL, abs_tol=AGREEMENT_TOL,
        ):
            ranked.extend(sorted(tied, key=lambda c: c.gid))
            tied = []
        tied.append(leaf)
    ranked.extend(sorted(tied, key=lambda c: c.gid))
    return ranked[:k]
