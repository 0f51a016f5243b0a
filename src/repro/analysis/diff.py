"""Trace diffing: compare two compressed traces rank by rank.

Useful for regression checks ("did the new library version change the
communication behaviour?") and for validating that two tracing runs of
the same program agree.  Comparison is on the *replayed call sequences*
(no timing), so traces produced by different compressor configurations —
or different trace-file versions — compare equal when the behaviour is
the same.

Where the sequences diverge, the report points at *program structure*,
not just an event index: each divergence carries the query-layer vertex
path of the call site on both sides (``loop#4/MPI_Send@6``), so "event
48237 differs" becomes "the send inside the halo-exchange loop differs".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.decompress import decompress_all
from repro.core.inter import MergedCTT
from repro.query.paths import TreeIndex


@dataclass
class RankDiff:
    rank: int
    first_divergence: int  # event index, -1 if only lengths differ
    len_a: int
    len_b: int
    detail: str = ""
    path_a: str = ""  # vertex path of the divergent event in A ("" if absent)
    path_b: str = ""  # ... and in B

    def where(self) -> str:
        """Human-readable location of the divergence."""
        if self.path_a and self.path_b and self.path_a != self.path_b:
            return f"at {self.path_a} (A) vs {self.path_b} (B)"
        if self.path_a or self.path_b:
            return f"at {self.path_a or self.path_b}"
        return ""


@dataclass
class TraceDiff:
    identical: bool
    only_in_a: list[int] = field(default_factory=list)  # ranks
    only_in_b: list[int] = field(default_factory=list)
    diverged: list[RankDiff] = field(default_factory=list)

    def format(self) -> str:
        if self.identical:
            return "traces are identical"
        lines = []
        if self.only_in_a:
            lines.append(f"ranks only in A: {self.only_in_a}")
        if self.only_in_b:
            lines.append(f"ranks only in B: {self.only_in_b}")
        for d in self.diverged:
            where = d.where()
            suffix = f" [{where}]" if where else ""
            if d.first_divergence >= 0:
                lines.append(
                    f"rank {d.rank}: diverges at event {d.first_divergence}: "
                    f"{d.detail}{suffix}"
                )
            else:
                lines.append(
                    f"rank {d.rank}: lengths differ ({d.len_a} vs {d.len_b})"
                    f"{suffix}"
                )
        return "\n".join(lines)


def _safe_path(index: TreeIndex, gid: int) -> str:
    """Vertex path, or "" when the gid is unknown to this tree (salvaged
    or hand-built traces may carry unindexed gids)."""
    if gid not in index.by_gid:
        return ""
    return index.path(gid)


def diff_traces(a: MergedCTT, b: MergedCTT) -> TraceDiff:
    """Compare two merged traces by replayed call sequences (each
    trace's peers checked against its own ranks, ``rank_span()``)."""
    events_a = decompress_all(a, a.rank_span())
    events_b = decompress_all(b, b.rank_span())
    index_a = TreeIndex(a)
    index_b = TreeIndex(b)
    result = TraceDiff(identical=True)
    result.only_in_a = sorted(set(events_a) - set(events_b))
    result.only_in_b = sorted(set(events_b) - set(events_a))
    if result.only_in_a or result.only_in_b:
        result.identical = False
    for rank in sorted(set(events_a) & set(events_b)):
        evs_a, evs_b = events_a[rank], events_b[rank]
        seq_a = [e.call_tuple() for e in evs_a]
        seq_b = [e.call_tuple() for e in evs_b]
        if seq_a == seq_b:
            continue
        result.identical = False
        idx = next(
            (i for i, (x, y) in enumerate(zip(seq_a, seq_b)) if x != y), -1
        )
        detail = ""
        path_a = path_b = ""
        if idx >= 0:
            detail = f"A={seq_a[idx][0]}{seq_a[idx][1:6]} B={seq_b[idx][0]}{seq_b[idx][1:6]}"
            path_a = _safe_path(index_a, evs_a[idx].gid)
            path_b = _safe_path(index_b, evs_b[idx].gid)
        else:
            # Lengths differ with a common prefix: point at the first
            # extra event of the longer trace.
            extra = len(seq_b)  # index of the first unmatched event
            if len(seq_a) > len(seq_b):
                path_a = _safe_path(index_a, evs_a[extra].gid)
            else:
                extra = len(seq_a)
                path_b = _safe_path(index_b, evs_b[extra].gid)
        result.diverged.append(
            RankDiff(
                rank=rank,
                first_divergence=idx,
                len_a=len(seq_a),
                len_b=len(seq_b),
                detail=detail,
                path_a=path_a,
                path_b=path_b,
            )
        )
    return result
