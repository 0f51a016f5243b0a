"""ScalaTrace reimplementation (Noeth et al. [14]) — the dynamic-only
baseline.

Intra-process: the greedy tail fold of :class:`~.rsd.QueueCompressor`
over terms that match only when equal in every parameter and count — a
repeat becomes an RSD, repeats of RSDs become PRSDs.

Inter-process: pairwise merge by *sequence alignment* of term queues
(LCS over structural signatures, O(n²) per pair — the complexity the
paper cites for dynamic-only tools).  Terms aligned across ranks unify
their rank sets; counts that differ per rank are kept as per-group
variants, mirroring ScalaTrace's location-independent encoding.

The implementation is lossless end-to-end (``expand`` reproduces each
rank's exact event stream) — verified by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ranks import encode_peer
from repro.mpisim.events import CommEvent

from .rsd import RSD, EventTerm, QueueCompressor, Term, expand


def event_signature(ev: CommEvent, rank: int, relative: bool = True) -> tuple:
    """ScalaTrace's compression key: op + parameters, relative ranks, no
    time.  Requests are identified positionally (number of requests), as a
    handle-free tracer must."""
    return (
        ev.op,
        encode_peer(ev.peer, rank, relative),
        encode_peer(ev.peer2, rank, relative),
        ev.tag,
        ev.tag2,
        ev.nbytes,
        ev.nbytes2,
        ev.comm,
        ev.root,
        ev.wildcard,
        len(ev.reqs),
        ev.result_comm,
    )


class ScalaTraceCompressor(QueueCompressor):
    """Intra-process phase of ScalaTrace."""

    loop = RSD

    def term(self, ev: CommEvent, rank: int, gap: float) -> EventTerm:
        term = EventTerm(sig=event_signature(ev, rank, self.relative_ranks))
        term.duration.add(ev.duration)
        term.pre_gap.add(gap)
        return term

    def resolve(self, term: EventTerm, rank, source, nbytes) -> None:
        sig = list(term.sig)
        sig[1] = encode_peer(source, rank, self.relative_ranks)
        sig[5] = nbytes
        term.sig = tuple(sig)


# ---------------------------------------------------------------------------
# Inter-process merge (O(n^2) alignment per pair).
# ---------------------------------------------------------------------------


@dataclass
class MergedTerm:
    """One aligned slot of the merged queue."""

    structure: tuple
    variants: list[tuple[list[int], Term]] = field(default_factory=list)

    def add_variant(self, ranks: list[int], term: Term) -> None:
        for existing_ranks, existing in self.variants:
            if existing.matches(term):
                existing.absorb(term)
                existing_ranks.extend(ranks)
                return
        self.variants.append((list(ranks), term))

    def ranks(self) -> list[int]:
        out: list[int] = []
        for ranks, _ in self.variants:
            out.extend(ranks)
        return sorted(out)


MergedQueue = list[MergedTerm]


def lift_queue(queue: list[Term], rank: int) -> MergedQueue:
    return [
        MergedTerm(structure=t.structure, variants=[([rank], t)]) for t in queue
    ]


def _align(sa: list[int], sb: list[int]) -> list[tuple[int | None, int | None]]:
    """LCS alignment of two hash sequences; returns ordered index pairs
    with ``None`` for gaps.  O(len(sa)·len(sb)) — deliberately."""
    import numpy as np

    n, m = len(sa), len(sb)
    a = np.asarray(sa, dtype=np.int64)
    b = np.asarray(sb, dtype=np.int64)
    dp = np.zeros((n + 1, m + 1), dtype=np.int32)
    for i in range(1, n + 1):
        match = (b == a[i - 1]).astype(np.int32)
        row_prev = dp[i - 1]
        row = dp[i]
        # dp[i][j] = max(dp[i-1][j], dp[i][j-1], dp[i-1][j-1] + match)
        diag = row_prev[:-1] + match
        best = 0
        for j in range(1, m + 1):
            best = max(diag[j - 1], row_prev[j], best)
            row[j] = best
    pairs: list[tuple[int | None, int | None]] = []
    i, j = n, m
    while i > 0 and j > 0:
        if sa[i - 1] == sb[j - 1] and dp[i][j] == dp[i - 1][j - 1] + 1:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif dp[i - 1][j] >= dp[i][j - 1]:
            pairs.append((i - 1, None))
            i -= 1
        else:
            pairs.append((None, j - 1))
            j -= 1
    while i > 0:
        pairs.append((i - 1, None))
        i -= 1
    while j > 0:
        pairs.append((None, j - 1))
        j -= 1
    pairs.reverse()
    return pairs


# Pairwise alignments above this many DP cells fall back to concatenation
# (lossless, no cross-rank sharing).  Real tools need a guard like this
# too: on parameter-divergent codes (SP) the merged queue grows with every
# rank and the quadratic DP would run for hours.  The overflow count is
# reported so benchmarks can state when the fallback fired.
DP_CELL_LIMIT = 16_000_000

overflowed_merges = 0  # module-level diagnostic counter


def merge_queues(qa: MergedQueue, qb: MergedQueue) -> MergedQueue:
    """Pairwise inter-process merge — the O(n²) step.

    ScalaTrace [14] aligns the two queues unconditionally; the whole-queue
    signature shortcut is ScalaTrace-2's contribution, so it is *not*
    taken here (that is precisely the inefficiency Fig. 18 measures).
    """
    global overflowed_merges
    sa = [hash(t.structure) for t in qa]
    sb = [hash(t.structure) for t in qb]
    if len(sa) * len(sb) > DP_CELL_LIMIT:
        overflowed_merges += 1
        return qa + qb  # lossless concatenation, no sharing
    out: MergedQueue = []
    for ia, ib in _align(sa, sb):
        if ia is not None and ib is not None:
            slot = qa[ia]
            for ranks, term in qb[ib].variants:
                slot.add_variant(ranks, term)
            out.append(slot)
        elif ia is not None:
            out.append(qa[ia])
        else:
            out.append(qb[ib])
    return out


def merge_all_queues(queues: dict[int, list[Term]]) -> MergedQueue:
    """Merge every rank's compressed queue into one job-wide queue, in
    pairs up a binary tree."""
    lifted = [lift_queue(q, rank) for rank, q in sorted(queues.items())]
    if not lifted:
        raise ValueError("no queues to merge")
    while len(lifted) > 1:
        nxt = []
        for i in range(0, len(lifted) - 1, 2):
            nxt.append(merge_queues(lifted[i], lifted[i + 1]))
        if len(lifted) % 2:
            nxt.append(lifted[-1])
        lifted = nxt
    return lifted[0]


def expand_rank(queue: MergedQueue, rank: int) -> list[tuple]:
    """Reconstruct one rank's event-signature stream from the merged queue
    (losslessness check)."""
    terms: list[Term] = []
    for slot in queue:
        for ranks, term in slot.variants:
            if rank in ranks:
                terms.append(term)
                break
    return expand(terms)
