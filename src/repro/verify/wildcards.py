"""Nondeterminism audit of compressed wildcard receives.

A wildcard receive (``MPI_ANY_SOURCE``) records the source it *actually*
matched, so a compressed trace silently bakes one scheduling of a
nondeterministic program into what looks like a deterministic artifact.
This audit walks the **compressed** form of a merged trace — no
decompression — and flags the two observable footprints:

* **cross-group** — at one receive leaf, ranks split into merged groups
  whose resolved-source patterns differ.  A deterministic program
  produces one group (all ranks resolve the same relative source
  pattern); distinct patterns mean the match depended on arrival order.
* **iteration-order** — within one group, a single leaf holds two or
  more wildcard records whose occurrence ranges *interleave*: the same
  call site matched different sources on different iterations in a
  non-blocked pattern, i.e. the match order is iteration-dependent.

Findings are *observations*, not violations: a master/worker farm is
legitimately nondeterministic.  The audit makes that visible (and lets
CI pin workloads that must stay deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.static.cst import CALL

_WILDCARD_SLOT = 9


@dataclass(frozen=True)
class WildcardFinding:
    """One nondeterminism footprint at one receive leaf."""

    kind: str  # "cross-group" | "iteration-order"
    gid: int
    op: str
    ranks: tuple[int, ...]  # lowest rank of each involved group
    detail: str

    def format(self) -> str:
        return (
            f"{self.kind}: gid={self.gid} {self.op} "
            f"(groups led by ranks {list(self.ranks)}): {self.detail}"
        )


@dataclass
class WildcardAudit:
    findings: list[WildcardFinding] = field(default_factory=list)
    wildcard_leaves: int = 0  # leaves holding >=1 wildcard record
    wildcard_records: int = 0

    @property
    def deterministic(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "wildcard_leaves": self.wildcard_leaves,
            "wildcard_records": self.wildcard_records,
            "deterministic": self.deterministic,
            "findings": [f.format() for f in self.findings],
        }


def _wildcard_pattern(records):
    """A group's resolved-source footprint at one leaf: which encoded
    sources were matched at which occurrence indices.  Encoded (not
    decoded) peers compare across ranks: identical REL deltas mean every
    rank resolved the same *relative* source — the deterministic case."""
    pattern = []
    for record in records:
        key = record.key
        if key is not None and key[_WILDCARD_SLOT]:
            pattern.append((key[1], tuple(record.occurrences().terms)))
    pattern.sort()
    return tuple(pattern)


def _interleaved(records):
    """Wildcard records whose occurrence index ranges overlap — the
    same call site alternated between sources within one range of
    iterations.  Range overlap on sorted disjoint occurrence sets is
    exactly 'the merge-sorted sequence switches records mid-run'."""
    spans = []
    for record in records:
        key = record.key
        if key is None or not key[_WILDCARD_SLOT]:
            continue
        occ = record.occurrences()
        if len(occ):
            first = occ.terms[0][0]
            s, c, d = occ.terms[-1]
            spans.append((first, s + (c - 1) * d, key[1]))
    spans.sort()
    overlapping = []
    for (lo_a, hi_a, peer_a), (lo_b, _hi_b, peer_b) in zip(spans, spans[1:]):
        if lo_b <= hi_a:
            overlapping.append((peer_a, peer_b))
    return overlapping


def audit_wildcards(merged) -> WildcardAudit:
    """Audit every receive leaf of a merged CTT (see module docstring)."""
    audit = WildcardAudit()
    for vertex in merged.vertices():
        if vertex.kind != CALL or not vertex.groups:
            continue
        patterns: dict[tuple, list[int]] = {}
        leaf_has_wildcards = False
        for group in vertex.sorted_groups():
            records = group.records or []
            n_wild = sum(
                1 for r in records
                if r.key is not None and r.key[_WILDCARD_SLOT]
            )
            if not n_wild:
                continue
            leaf_has_wildcards = True
            audit.wildcard_records += n_wild
            patterns.setdefault(_wildcard_pattern(records), []).append(
                group.ranks[0]
            )
            pairs = _interleaved(records)
            if pairs:
                audit.findings.append(WildcardFinding(
                    kind="iteration-order",
                    gid=vertex.gid,
                    op=vertex.op or "?",
                    ranks=(group.ranks[0],),
                    detail=(
                        f"{len(pairs)} overlapping source pair(s), e.g. "
                        f"{pairs[0][0]!r} interleaves with {pairs[0][1]!r} "
                        "— match order is iteration-dependent"
                    ),
                ))
        if leaf_has_wildcards:
            audit.wildcard_leaves += 1
        if len(patterns) > 1:
            leaders = tuple(sorted(
                lead for leads in patterns.values() for lead in leads
            ))
            audit.findings.append(WildcardFinding(
                kind="cross-group",
                gid=vertex.gid,
                op=vertex.op or "?",
                ranks=leaders,
                detail=(
                    f"{len(patterns)} distinct resolved-source patterns "
                    "across merged groups — the match depended on arrival "
                    "order"
                ),
            ))
    return audit
