"""Dominator analysis over MiniMPI CFGs.

Implements the Cooper–Harvey–Kennedy iterative dominator algorithm
("A Simple, Fast Dominance Algorithm"), the classic approach the paper
references for its dominator-based loop detection (Muchnick [20]).

Also provides post-dominators (dominators of the reversed CFG), used by the
CST builder to find branch join points.
"""

from __future__ import annotations

from repro.minilang.cfg import CFG


def immediate_dominators(cfg: CFG) -> dict[int, int]:
    """Immediate dominator of every reachable block.

    Returns a map ``block -> idom`` with ``idom[entry] == entry``.
    """
    return _idoms(
        entry=cfg.entry,
        rpo=cfg.reverse_postorder(),
        preds=lambda b: cfg.blocks[b].preds,
    )


def immediate_post_dominators(cfg: CFG) -> dict[int, int]:
    """Immediate post-dominator of every block that reaches the exit.

    Computed as dominators of the reversed CFG rooted at ``cfg.exit``.
    """
    # Post-order of the reversed graph from the exit.
    seen: set[int] = {cfg.exit}
    order: list[int] = []
    stack: list[tuple[int, int]] = [(cfg.exit, 0)]
    while stack:
        bid, idx = stack[-1]
        preds = cfg.blocks[bid].preds
        if idx < len(preds):
            stack[-1] = (bid, idx + 1)
            nxt = preds[idx]
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, 0))
        else:
            stack.pop()
            order.append(bid)
    rpo = list(reversed(order))
    return _idoms(entry=cfg.exit, rpo=rpo, preds=lambda b: cfg.blocks[b].succs)


def _idoms(entry: int, rpo: list[int], preds) -> dict[int, int]:
    index = {bid: i for i, bid in enumerate(rpo)}
    idom: dict[int, int] = {entry: entry}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for bid in rpo:
            if bid == entry:
                continue
            candidates = [p for p in preds(bid) if p in idom and p in index]
            if not candidates:
                continue
            new_idom = candidates[0]
            for p in candidates[1:]:
                new_idom = intersect(new_idom, p)
            if idom.get(bid) != new_idom:
                idom[bid] = new_idom
                changed = True
    return idom


def dominates(idom: dict[int, int], a: int, b: int) -> bool:
    """True if block ``a`` dominates block ``b`` (reflexive)."""
    node = b
    while True:
        if node == a:
            return True
        parent = idom.get(node)
        if parent is None or parent == node:
            return False
        node = parent
