"""O(n) structural invariant checkers for CSTs and (merged) CTTs.

Every property checked here is one the pipeline *relies on* rather than
re-derives — replay cursors assume monotone occurrence sequences, the
merge assumes disjoint rank sets, peer decoding assumes deltas stay in
the rank range.  Violations therefore mean a damaged trace (or a
pipeline bug), never a legal input; each one carries the gid, rank, and
offending values so a report names the exact divergence.

The arity invariants tie a vertex's payload length to how often its
parent's body executed (``E_body``):

* ``E_body(root) = 1``;
* a LOOP child records exactly ``E_body(parent)`` iteration counts and
  its own body executes ``sum(counts)`` times;
* a BRANCH group's shared visit counter advances once per parent body
  execution, so path visit indices live in ``[0, E_body(parent))``,
  strictly increasing per path and disjoint across sibling paths —
  with holes allowed where a pruned (empty) path was taken;
* a CALL leaf executes once per parent body execution, so the union of
  its records' occurrence indices is exactly ``{0..E_body(parent)-1}``,
  disjoint across records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mpisim.datatypes import ANY_SOURCE
from repro.mpisim.events import NO_PEER
from repro.static.cst import BRANCH, CALL, FUNC, LOOP, ROOT, CSTNode

from repro.core.inter import (
    MergedCTT,
    _loop_signature,
    _records_signature,
    _visits_signature,
)
from repro.core.ranks import ABS, REL

_WILDCARD_SLOT = 9  # record key layout, see repro.core.records


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with enough context to locate it."""

    code: str  # short machine-readable kind, e.g. "occ-not-contiguous"
    message: str  # human-readable statement of what failed
    gid: int = -1  # CST/CTT vertex, -1 when not vertex-specific
    rank: int = -1  # owning rank (or lowest group rank), -1 if global
    detail: tuple = ()  # offending values (sequences, keys, ranks)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "gid": self.gid,
            "rank": self.rank,
            "detail": [repr(d) for d in self.detail],
        }


class _Report:
    __slots__ = ("violations", "limit")

    def __init__(self, limit: int = 200) -> None:
        self.violations: list[Violation] = []
        self.limit = limit

    def add(self, code, message, gid=-1, rank=-1, detail=()) -> None:
        if len(self.violations) < self.limit:
            self.violations.append(
                Violation(code, message, gid=gid, rank=rank, detail=detail)
            )


# ---------------------------------------------------------------------------
# CST.


def check_cst(cst: CSTNode, limit: int = 200) -> list[Violation]:
    """Structural validation of a compiled CST.

    Checks pre-order GID assignment (unique, dense, starting at the
    root's gid), vertex-kind legality (CALL leaves only, no leftover
    FUNC vertices after inlining, LOOP/BRANCH never empty after
    pruning), and branch-path sanity (``branch_path`` set on BRANCH
    vertices, sibling paths of one ``if`` distinct).
    """
    rep = _Report(limit)
    seen_gids: set[int] = set()
    expected = cst.gid
    for node, parent in cst.preorder_with_parent():
        if node.gid in seen_gids:
            rep.add("gid-duplicate", f"gid {node.gid} assigned twice",
                    gid=node.gid)
        seen_gids.add(node.gid)
        if node.gid != expected:
            rep.add(
                "gid-not-preorder",
                f"gid {node.gid} at pre-order position {expected}",
                gid=node.gid, detail=(expected,),
            )
        expected += 1
        if parent is None:
            if node.kind != ROOT:
                rep.add("root-kind", f"root vertex has kind {node.kind!r}",
                        gid=node.gid)
        elif node.kind == ROOT:
            rep.add("root-not-root", "non-root vertex has kind 'root'",
                    gid=node.gid)
        if node.kind == FUNC:
            rep.add("func-leaf", f"un-inlined func leaf {node.name!r}",
                    gid=node.gid)
        if node.kind == CALL and node.children:
            rep.add("call-with-children",
                    f"call leaf {node.name!r} has {len(node.children)} children",
                    gid=node.gid)
        if node.kind in (LOOP, BRANCH) and not node.children:
            rep.add("empty-control",
                    f"{node.kind} vertex survived pruning with no children",
                    gid=node.gid)
        if node.kind == BRANCH and node.branch_path is None:
            rep.add("branch-no-path", "branch vertex without branch_path",
                    gid=node.gid)
        # Sibling paths of one `if` group their visit counter; a legal
        # path index is 0 (then) or 1 (else).  A *repeated* path under
        # the same ast_id is NOT a violation — the same inlined function
        # contributes one `if` instance per call site, and group
        # formation splits runs at repeats (see CTTShape._group_layout).
        for child in node.children:
            if (
                child.kind == BRANCH
                and child.branch_path is not None
                and child.branch_path not in (0, 1)
            ):
                rep.add(
                    "branch-bad-path",
                    f"branch path {child.branch_path!r} is neither "
                    "then (0) nor else (1)",
                    gid=child.gid,
                )
    return rep.violations


# ---------------------------------------------------------------------------
# Shared payload helpers.


def _check_monotone(seq, what, gid, rank, rep, strict=True) -> None:
    prev = None
    for v in seq:
        if prev is not None and (v <= prev if strict else v < prev):
            rep.add(
                f"{what}-regress",
                f"{what} sequence not monotone at gid={gid}: "
                f"{v} after {prev}",
                gid=gid, rank=rank, detail=(prev, v),
            )
            return
        prev = v


def _check_records(records, gid, rank, nranks, expected_total, rep) -> None:
    """One leaf's record list: monotone disjoint occurrences whose union
    is exactly ``{0..expected_total-1}``, legal keys, in-range peers."""
    covered: list[int] = []
    for idx, record in enumerate(records):
        key = record.key
        if key is None or getattr(record, "pending", False):
            rep.add(
                "pending-record",
                f"leaf gid={gid} record #{idx} is an unresolved wildcard "
                "(pending/keyless)",
                gid=gid, rank=rank, detail=(key,),
            )
            continue
        _check_monotone(record.occurrences, "occ", gid, rank, rep)
        covered.extend(record.occurrences)
        for slot, label in ((1, "peer"), (2, "peer2")):
            enc = key[slot]
            mode, value = enc
            if mode == REL:
                lo = hi = rank + value
                if not 0 <= lo or (nranks is not None and hi >= nranks):
                    rep.add(
                        "peer-range",
                        f"leaf gid={gid} ({key[0]}) {label} {enc!r} decodes "
                        f"to {lo} on rank {rank}, outside "
                        f"[0, {nranks if nranks is not None else '?'})",
                        gid=gid, rank=rank, detail=(enc,),
                    )
            elif mode == ABS:
                if value not in (NO_PEER, ANY_SOURCE) and (
                    value < 0 or (nranks is not None and value >= nranks)
                ):
                    rep.add(
                        "peer-range",
                        f"leaf gid={gid} ({key[0]}) {label} {enc!r} is "
                        "neither a rank nor a legal sentinel",
                        gid=gid, rank=rank, detail=(enc,),
                    )
            else:
                rep.add("peer-encoding",
                        f"leaf gid={gid} bad peer encoding {enc!r}",
                        gid=gid, rank=rank, detail=(enc,))
        if key[1] == (ABS, ANY_SOURCE) and not key[_WILDCARD_SLOT]:
            rep.add(
                "anysource-not-wildcard",
                f"leaf gid={gid} stores ANY_SOURCE as peer without the "
                "wildcard flag",
                gid=gid, rank=rank, detail=(key,),
            )
    covered.sort()
    if expected_total is not None and len(covered) != expected_total:
        rep.add(
            "occ-count",
            f"leaf gid={gid}: {len(covered)} occurrences recorded, parent "
            f"body executed {expected_total} times",
            gid=gid, rank=rank, detail=(len(covered), expected_total),
        )
        return
    for i, v in enumerate(covered):
        if v != i:
            code = "occ-overlap" if i > 0 and covered[i - 1] == v else (
                "occ-not-contiguous"
            )
            rep.add(
                code,
                f"leaf gid={gid}: occurrence union not exactly "
                f"{{0..{len(covered) - 1}}} (index {i} holds {v})",
                gid=gid, rank=rank, detail=(i, v),
            )
            return


def _branch_runs(children):
    """Consecutive same-``ast_id`` branch-path children, grouped the way
    replay groups them (see ``decompress._compile``)."""
    runs, i = [], 0
    while i < len(children):
        child = children[i]
        if child.kind != BRANCH:
            i += 1
            continue
        run, paths = [], set()
        while (
            i < len(children)
            and children[i].kind == BRANCH
            and children[i].ast_id == child.ast_id
            and children[i].branch_path not in paths
        ):
            run.append(children[i])
            paths.add(children[i].branch_path)
            i += 1
        runs.append(run)
    return runs


# ---------------------------------------------------------------------------
# Per-rank CTT.


def check_ctt(ctt, nranks: int | None = None, limit: int = 200) -> list[Violation]:
    """Validate one rank's CTT payload against the arity invariants.

    ``nranks`` additionally range-checks every decoded peer.
    """
    rep = _Report(limit)
    rank = ctt.rank
    if nranks is not None and not 0 <= rank < nranks:
        rep.add("rank-range", f"CTT rank {rank} outside [0, {nranks})",
                rank=rank)
    call_gids = {
        v.gid for v in ctt.vertices() if v.kind == CALL
    }

    def walk(vertex, e_body: int) -> None:
        for child in vertex.children:
            if child.kind == LOOP:
                counts = child.loop_counts
                if len(counts) != e_body:
                    rep.add(
                        "loop-arity",
                        f"loop gid={child.gid}: {len(counts)} activations "
                        f"recorded, parent body executed {e_body} times",
                        gid=child.gid, rank=rank,
                        detail=(len(counts), e_body),
                    )
                total = 0
                for c in counts:
                    if c < 0:
                        rep.add(
                            "loop-negative",
                            f"loop gid={child.gid}: negative iteration "
                            f"count {c}",
                            gid=child.gid, rank=rank, detail=(c,),
                        )
                    else:
                        total += c
                walk(child, total)
            elif child.kind == CALL:
                _check_records(
                    child.records or [], child.gid, rank, nranks, e_body, rep
                )
                for record in child.records or []:
                    if record.key is None:
                        continue
                    for g in record.key[10]:
                        if g != -1 and g not in call_gids:
                            rep.add(
                                "req-gid",
                                f"leaf gid={child.gid}: req_gid {g} is not "
                                "a CALL vertex",
                                gid=child.gid, rank=rank, detail=(g,),
                            )
        for run in _branch_runs(vertex.children):
            taken: dict[int, int] = {}
            for path in run:
                visits = path.visits or ()
                _check_monotone(visits, "visits", path.gid, rank, rep)
                for v in visits:
                    if not 0 <= v < e_body:
                        rep.add(
                            "visit-bounds",
                            f"branch gid={path.gid}: visit {v} outside "
                            f"[0, {e_body})",
                            gid=path.gid, rank=rank, detail=(v, e_body),
                        )
                    elif v in taken:
                        rep.add(
                            "visit-overlap",
                            f"branch gid={path.gid}: visit {v} already "
                            f"taken by sibling gid={taken[v]}",
                            gid=path.gid, rank=rank, detail=(v, taken[v]),
                        )
                    else:
                        taken[v] = path.gid
                walk(path, len(visits))

    walk(ctt.root, 1)
    return rep.violations


# ---------------------------------------------------------------------------
# Merged CTT.


def check_merged(
    merged: MergedCTT, nranks: int | None = None, limit: int = 200
) -> list[Violation]:
    """Validate a job-wide merged CTT.

    Per-vertex: group rank sets sorted, disjoint, in range, and drawn
    from one global rank population whose size matches
    ``nranks_merged``; stored interned signatures agree with the payload
    they summarize.  Per-rank: the same arity invariants as
    :func:`check_ctt`, evaluated through each rank's group view.
    """
    rep = _Report(limit)
    all_ranks: set[int] = set()
    for vertex in merged.vertices():
        seen: dict[int, object] = {}
        for sig, group in vertex.groups.items():
            ranks = group.ranks
            if not ranks:
                rep.add("group-empty", f"gid={vertex.gid}: empty group",
                        gid=vertex.gid)
                continue
            if any(b <= a for a, b in zip(ranks, ranks[1:])):
                rep.add(
                    "ranks-unsorted",
                    f"gid={vertex.gid}: group rank list not strictly "
                    "ascending",
                    gid=vertex.gid, rank=ranks[0], detail=(tuple(ranks),),
                )
            for r in ranks:
                if r in seen:
                    rep.add(
                        "rank-overlap",
                        f"gid={vertex.gid}: rank {r} in two groups",
                        gid=vertex.gid, rank=r,
                    )
                seen[r] = group
                if r < 0 or (nranks is not None and r >= nranks):
                    rep.add(
                        "rank-range",
                        f"gid={vertex.gid}: group rank {r} outside "
                        f"[0, {nranks if nranks is not None else '?'})",
                        gid=vertex.gid, rank=r,
                    )
            all_ranks.update(ranks)
            if sig is not group.signature and sig != group.signature:
                rep.add(
                    "signature-index",
                    f"gid={vertex.gid}: group stored under a different "
                    "signature than it carries",
                    gid=vertex.gid, rank=ranks[0],
                )
            recomputed = None
            if group.counts is not None:
                recomputed = _loop_signature(group.counts)
            elif group.visits is not None:
                recomputed = _visits_signature(group.visits)
            elif group.records is not None:
                recomputed = _records_signature(group.records)
            if recomputed is not None and recomputed != group.signature.key:
                rep.add(
                    "signature-stale",
                    f"gid={vertex.gid}: stored signature does not match "
                    "the group payload",
                    gid=vertex.gid, rank=ranks[0],
                    detail=(group.signature.key, recomputed),
                )
    if len(all_ranks) > merged.nranks_merged:
        rep.add(
            "rank-population",
            f"{len(all_ranks)} distinct ranks across groups but only "
            f"{merged.nranks_merged} ranks merged",
            detail=(len(all_ranks), merged.nranks_merged),
        )

    # Per-rank arity walk through the group view.
    for rank in sorted(all_ranks):
        _check_merged_rank(merged, rank, nranks, rep)
    return rep.violations


def _check_merged_rank(merged, rank, nranks, rep) -> None:
    def payload(vertex):
        return vertex.group_of(rank)

    def walk(vertex, e_body: int) -> None:
        for child in vertex.children:
            group = payload(child)
            if child.kind == LOOP:
                counts = group.counts if group is not None else ()
                n = len(counts) if counts is not None else 0
                if n != e_body:
                    rep.add(
                        "loop-arity",
                        f"loop gid={child.gid} rank {rank}: {n} activations "
                        f"recorded, parent body executed {e_body} times",
                        gid=child.gid, rank=rank, detail=(n, e_body),
                    )
                total = 0
                for c in counts or ():
                    if c < 0:
                        rep.add(
                            "loop-negative",
                            f"loop gid={child.gid} rank {rank}: negative "
                            f"iteration count {c}",
                            gid=child.gid, rank=rank, detail=(c,),
                        )
                    else:
                        total += c
                walk(child, total)
            elif child.kind == CALL:
                records = group.records if group is not None else []
                _check_records(
                    records or [], child.gid, rank, nranks, e_body, rep
                )
        for run in _branch_runs(vertex.children):
            taken: dict[int, int] = {}
            for path in run:
                group = payload(path)
                visits = group.visits if group is not None else ()
                _check_monotone(visits or (), "visits", path.gid, rank, rep)
                n_visits = 0
                for v in visits or ():
                    n_visits += 1
                    if not 0 <= v < e_body:
                        rep.add(
                            "visit-bounds",
                            f"branch gid={path.gid} rank {rank}: visit {v} "
                            f"outside [0, {e_body})",
                            gid=path.gid, rank=rank, detail=(v, e_body),
                        )
                    elif v in taken:
                        rep.add(
                            "visit-overlap",
                            f"branch gid={path.gid} rank {rank}: visit {v} "
                            f"already taken by sibling gid={taken[v]}",
                            gid=path.gid, rank=rank, detail=(v, taken[v]),
                        )
                    else:
                        taken[v] = path.gid
                walk(path, n_visits)

    walk(merged.root, 1)


# ---------------------------------------------------------------------------
# Observability.


def publish_verify_metrics(
    registry, *, checks: int = 0, violations: int = 0, findings: int = 0
) -> None:
    """Fold one verification pass into the active metrics registry."""
    if registry is None:
        return
    if checks:
        registry.counter_add("verify.checks", checks)
    if violations:
        registry.counter_add("verify.violations", violations)
    if findings:
        registry.counter_add("verify.wildcard_findings", findings)
