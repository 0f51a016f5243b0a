"""Summary reports over compressed traces: the job-wide
:func:`repro.query.rank_profile` rendered — no record is built and
nothing is decompressed (one of the points of structural compression:
analyses read the compressed form).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.inter import MergedCTT
from repro.query.engine import OpProfile, rank_profile


@dataclass
class TraceReport:
    nranks: int
    vertices: int
    groups: int
    ops: dict[str, OpProfile] = field(default_factory=dict)
    total_comm_us: float = 0.0
    total_gap_us: float = 0.0  # computation time between events

    @property
    def total_events(self) -> int:
        return sum(o.calls for o in self.ops.values())

    @property
    def comm_fraction(self) -> float:
        total = self.total_comm_us + self.total_gap_us
        return self.total_comm_us / total if total else 0.0

    def format(self) -> str:
        lines = [
            f"ranks: {self.nranks}   CTT vertices: {self.vertices}   "
            f"rank groups: {self.groups}",
            f"events: {self.total_events}   "
            f"comm time fraction: {self.comm_fraction * 100:.1f}%",
            f"{'op':16s} {'calls':>10s} {'bytes':>14s} {'time(ms)':>10s}",
        ]
        for op in sorted(self.ops, key=lambda o: -self.ops[o].time_us):
            s = self.ops[op]
            lines.append(
                f"{op:16s} {s.calls:10d} {s.nbytes:14d} {s.time_us / 1e3:10.2f}"
            )
        return "\n".join(lines)


def summarize(merged: MergedCTT) -> TraceReport:
    """The job-wide per-op profile (``rank_profile(merged, None)``) with
    the tree's shape."""
    profile = rank_profile(merged, None)
    ranks = {r for v in merged.vertices() for g in v.groups
             for r in g.ranks}
    return TraceReport(
        nranks=len(ranks),
        vertices=merged.vertex_count(),
        groups=merged.group_count(),
        ops=profile.ops,
        total_comm_us=profile.comm_us,
        total_gap_us=profile.gap_us,
    )
