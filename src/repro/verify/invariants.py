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

from dataclasses import dataclass

from repro.mpisim.datatypes import ANY_SOURCE
from repro.mpisim.events import NO_PEER
from repro.static.cst import BRANCH, CALL, FUNC, LOOP, ROOT, CSTNode

from repro.core.decompress import _compile, group_payload, own_payload
from repro.core.inter import MergedCTT, MergedVertex, payload_key
from repro.core.ranks import ABS, REL, TOR

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
        # formation splits runs at repeats (see cst.branch_groups).
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


def _check_peers(records, gid, lo, hi, nranks, rep) -> None:
    """Every peer of a leaf's records, for member ranks ``lo..hi`` at
    once: a REL delta decodes in range for every member exactly when it
    does for the lowest and the highest; a TOR peer stays in its
    member's own block of ``s·m`` ranks, so it is in range when the
    highest member's block is; an ABS value is a rank or a legal
    sentinel."""
    bound = nranks if nranks is not None else "?"
    for record in records:
        key = record.key
        if key is None:
            continue  # _check_records reports it
        for slot, label in ((1, "peer"), (2, "peer2")):
            enc = key[slot]
            mode = enc[0]
            if mode == REL and len(enc) == 2:
                low, high = lo + enc[1], hi + enc[1]
                if low < 0 or (nranks is not None and high >= nranks):
                    rank, peer = (lo, low) if low < 0 else (hi, high)
                    rep.add(
                        "peer-range",
                        f"leaf gid={gid} ({key[0]}) {label} {enc!r} decodes "
                        f"to {peer} on rank {rank}, outside [0, {bound})",
                        gid=gid, rank=rank, detail=(enc,),
                    )
            elif mode == ABS and len(enc) == 2:
                value = enc[1]
                if value not in (NO_PEER, ANY_SOURCE) and (
                    value < 0 or (nranks is not None and value >= nranks)
                ):
                    rep.add(
                        "peer-range",
                        f"leaf gid={gid} ({key[0]}) {label} {enc!r} is "
                        "neither a rank nor a legal sentinel",
                        gid=gid, rank=lo, detail=(enc,),
                    )
            elif mode == TOR and len(enc) == 4:
                _, t, s, m = enc
                if s < 1 or m < 2 or 2 * abs(t) > m or (
                    nranks is not None and (hi // (s * m) + 1) * s * m > nranks
                ):
                    rep.add(
                        "peer-range",
                        f"leaf gid={gid} ({key[0]}) {label} {enc!r}: rank "
                        f"{hi}'s block of s·m ranks is not inside "
                        f"[0, {bound}), or the shift is not a ring's",
                        gid=gid, rank=hi, detail=(enc,),
                    )
            else:
                rep.add("peer-encoding",
                        f"leaf gid={gid} bad peer encoding {enc!r}",
                        gid=gid, rank=lo, detail=(enc,))


def _check_records(
    records, gid, rank, nranks, expected_total, call_gids, rep, peers=True
) -> None:
    """One leaf's record list: monotone disjoint occurrences whose union
    is exactly ``{0..expected_total-1}``, legal keys, in-range peers
    (unless ``peers`` is false: a merged tree checks them a group at a
    time), request gids that name CALL vertices."""
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
        occurrences = record.occurrences()
        _check_monotone(occurrences, "occ", gid, rank, rep)
        covered.extend(occurrences)
        if peers:
            _check_peers((record,), gid, rank, rank, nranks, rep)
        if key[1] == (ABS, ANY_SOURCE) and not key[_WILDCARD_SLOT]:
            rep.add(
                "anysource-not-wildcard",
                f"leaf gid={gid} stores ANY_SOURCE as peer without the "
                "wildcard flag",
                gid=gid, rank=rank, detail=(key,),
            )
        for g in key[10]:
            if g != -1 and g not in call_gids:
                rep.add(
                    "req-gid",
                    f"leaf gid={gid} rank {rank}: req_gid {g} is not a "
                    "CALL vertex",
                    gid=gid, rank=rank, detail=(g,),
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


# ---------------------------------------------------------------------------
# The arity walk.


def _check_rank(
    steps, rank, payload, nranks, call_gids, rep, peers=True
) -> None:
    """Check ``rank``'s view of a tree against the arity invariants,
    walking replay's ``steps`` (``decompress._compile``) and reading each
    vertex's payload through ``payload(vertex)``, one of replay's own
    accessors (``peers``: as :func:`_check_records`)."""

    def walk(steps, e_body: int) -> None:
        for kind, node, inner in steps:
            if kind == CALL:  # ``node`` is a run of leaves
                for leaf in node:
                    _check_records(
                        payload(leaf) or [], leaf.gid, rank, nranks, e_body,
                        call_gids, rep, peers,
                    )
            elif kind == LOOP:
                counts = payload(node) or ()
                if len(counts) != e_body:
                    rep.add(
                        "loop-arity",
                        f"loop gid={node.gid} rank {rank}: {len(counts)} "
                        f"activations recorded, parent body executed "
                        f"{e_body} times",
                        gid=node.gid, rank=rank,
                        detail=(len(counts), e_body),
                    )
                total = 0
                for c in counts:
                    if c < 0:
                        rep.add(
                            "loop-negative",
                            f"loop gid={node.gid} rank {rank}: negative "
                            f"iteration count {c}",
                            gid=node.gid, rank=rank, detail=(c,),
                        )
                    else:
                        total += c
                walk(inner, total)
            else:  # a branch group: ``node`` is its paths
                taken: dict[int, int] = {}
                for path, path_steps in zip(node, inner):
                    visits = payload(path) or ()
                    _check_monotone(visits, "visits", path.gid, rank, rep)
                    n_visits = 0
                    for v in visits:
                        n_visits += 1
                        if not 0 <= v < e_body:
                            rep.add(
                                "visit-bounds",
                                f"branch gid={path.gid} rank {rank}: visit "
                                f"{v} outside [0, {e_body})",
                                gid=path.gid, rank=rank, detail=(v, e_body),
                            )
                        elif v in taken:
                            rep.add(
                                "visit-overlap",
                                f"branch gid={path.gid} rank {rank}: visit "
                                f"{v} already taken by sibling "
                                f"gid={taken[v]}",
                                gid=path.gid, rank=rank,
                                detail=(v, taken[v]),
                            )
                        else:
                            taken[v] = path.gid
                    walk(path_steps, n_visits)

    walk(steps, 1)


def _call_gids(vertices) -> set[int]:
    return {v.gid for v in vertices if v.kind == CALL}


def check_ctt(ctt, nranks: int | None = None, limit: int = 200) -> list[Violation]:
    """Validate one rank's CTT payload against the arity invariants.

    ``nranks`` additionally range-checks every decoded peer.
    """
    rep = _Report(limit)
    rank = ctt.rank
    if nranks is not None and not 0 <= rank < nranks:
        rep.add("rank-range", f"CTT rank {rank} outside [0, {nranks})",
                rank=rank)
    _check_rank(
        _compile(ctt.root), rank, own_payload, nranks,
        _call_gids(ctt.vertices()), rep,
    )
    return rep.violations


def check_merged(
    merged: MergedCTT, nranks: int | None = None, limit: int = 200
) -> list[Violation]:
    """Validate a job-wide merged CTT.

    Per-vertex: group rank sets sorted, disjoint, in range, and drawn
    from one global rank population whose size matches
    ``nranks_merged``; each leaf group's peers, once for all its members
    (:func:`_check_peers`); on a tree a merge built, every key of its
    payload index agrees with the payload of the group it leads to.
    Per-rank: the rest of the arity walk of :func:`check_ctt`, each rank
    reading its own group at every vertex.
    """
    rep = _Report(limit)
    all_ranks: set[int] = set()
    # Each vertex's rank → group map (the last group listing a rank
    # wins): the per-rank walk below looks its groups up here.
    owners: dict[MergedVertex, dict[int, object]] = {}
    vertices = merged.vertices()
    for vertex, keys in zip(vertices, merged.index or [{}] * len(vertices)):
        seen = owners[vertex] = {}
        for group in vertex.groups:
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
            if vertex.kind == CALL:
                _check_peers(
                    group.records or (), vertex.gid, ranks[0], ranks[-1],
                    nranks, rep,
                )
        for key, group in keys.items():
            recomputed = payload_key(group)
            if recomputed != key:
                rep.add(
                    "signature-stale",
                    f"gid={vertex.gid}: stored signature does not match "
                    "the group payload",
                    gid=vertex.gid, detail=(key, recomputed),
                    rank=group.ranks[0] if group.ranks else -1,
                )
    if len(all_ranks) > merged.nranks_merged:
        rep.add(
            "rank-population",
            f"{len(all_ranks)} distinct ranks across groups but only "
            f"{merged.nranks_merged} ranks merged",
            detail=(len(all_ranks), merged.nranks_merged),
        )

    steps = _compile(merged.root)
    call_gids = _call_gids(owners)
    for rank in sorted(all_ranks):
        payload = group_payload(lambda v, r=rank: owners[v].get(r))
        _check_rank(steps, rank, payload, nranks, call_gids, rep, False)
    return rep.violations


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
