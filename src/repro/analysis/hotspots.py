"""Structural hotspot analysis: which loops/call sites dominate
communication time.

Because the compressed trace *is* the program structure (the CTT), time
can be attributed to source structures directly — no flat-trace
post-processing.  Each CST vertex aggregates the total communication time
of the records beneath it, giving a "which loop hurts" view (the paper's
performance-problem-identification use case, §I).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.inter import MergedCTT, MergedVertex
from repro.query.engine import leaf_time as _leaf_time
from repro.static.cst import BRANCH, CALL, LOOP


@dataclass
class Hotspot:
    gid: int
    kind: str
    label: str  # op name for leaves, "loop"/"branch" otherwise
    depth: int
    total_us: float  # communication time under this vertex (summed over ranks)
    calls: int  # dynamic MPI calls under this vertex
    children: list["Hotspot"] = field(default_factory=list)

    def format(self, budget_us: float | None = None, indent: int = 0) -> str:
        total = budget_us if budget_us else (self.total_us or 1.0)
        share = 100.0 * self.total_us / total
        line = (
            f"{'  ' * indent}{self.label:<20s} {self.total_us / 1e3:10.2f} ms "
            f"{share:5.1f}%  ({self.calls} calls)"
        )
        lines = [line]
        for child in sorted(self.children, key=lambda h: -h.total_us):
            if child.total_us > 0:
                lines.append(child.format(total, indent + 1))
        return "\n".join(lines)


def hotspots(merged: MergedCTT) -> Hotspot:
    """Aggregate communication time bottom-up over the merged CTT."""

    def walk(vertex: MergedVertex, depth: int) -> Hotspot:
        if vertex.kind == CALL:
            total, calls = _leaf_time(vertex)
            return Hotspot(
                gid=vertex.gid, kind=CALL, label=vertex.op or "?",
                depth=depth, total_us=total, calls=calls,
            )
        children = [walk(c, depth + 1) for c in vertex.children]
        total = sum(c.total_us for c in children)
        calls = sum(c.calls for c in children)
        label = {LOOP: "loop", BRANCH: "branch"}.get(vertex.kind, "program")
        return Hotspot(
            gid=vertex.gid, kind=vertex.kind, label=f"{label}#{vertex.gid}",
            depth=depth, total_us=total, calls=calls, children=children,
        )

    return walk(merged.root, 0)

