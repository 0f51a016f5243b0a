"""Natural-loop detection over MiniMPI CFGs.

Classic dominator-based algorithm (paper §III-A, citing Muchnick): an edge
``t -> h`` is a *back edge* iff ``h`` dominates ``t``; the natural loop of a
back edge is ``h`` plus every block that can reach ``t`` without passing
through ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.minilang.cfg import CFG

from .dominators import dominates, immediate_dominators


@dataclass
class NaturalLoop:
    header: int
    back_edges: list[tuple[int, int]] = field(default_factory=list)
    body: set[int] = field(default_factory=set)  # includes the header

    @property
    def ast_id(self) -> int | None:
        return self._ast_id

    _ast_id: int | None = None


def find_back_edges(cfg: CFG, idom: dict[int, int] | None = None) -> list[tuple[int, int]]:
    """All back edges ``(tail, header)`` of the CFG."""
    if idom is None:
        idom = immediate_dominators(cfg)
    edges: list[tuple[int, int]] = []
    for bid in cfg.postorder():
        for succ in cfg.blocks[bid].succs:
            if succ in idom and dominates(idom, succ, bid):
                edges.append((bid, succ))
    return edges


def natural_loops(cfg: CFG, idom: dict[int, int] | None = None) -> dict[int, NaturalLoop]:
    """Natural loops keyed by header block id.

    Back edges sharing a header are merged into one loop (standard
    treatment for loops with multiple latches, e.g. from ``continue``).
    """
    if idom is None:
        idom = immediate_dominators(cfg)
    loops: dict[int, NaturalLoop] = {}
    for tail, header in find_back_edges(cfg, idom):
        loop = loops.setdefault(header, NaturalLoop(header=header))
        loop.back_edges.append((tail, header))
        # Walk predecessors backwards from the tail, stopping at the header.
        body = loop.body
        body.add(header)
        stack = [tail]
        while stack:
            bid = stack.pop()
            if bid in body:
                continue
            body.add(bid)
            stack.extend(cfg.blocks[bid].preds)
    for header, loop in loops.items():
        loop._ast_id = cfg.blocks[header].ast_id
    return loops
