"""ScalaTrace reimplementation (Noeth et al. [14]) — the dynamic-only
baseline.

Intra-process: a greedy on-line compressor over a queue of terms.  After
each event is appended, the tail window is compared against the terms
before it; a repeat becomes an RSD, repeats of RSDs become PRSDs, and an
RSD followed by another copy of its body increments its count.  Every
arriving event pays a search over up to ``max_window`` candidate repeat
lengths, each an O(k) term comparison — the bottom-up pattern probing
whose cost CYPRESS's static structure eliminates.

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
from repro.core.timing import TimeStats
from repro.mpisim.events import CommEvent
from repro.mpisim.pmpi import TraceSink, event_emitter

from .rsd import RSD, EventTerm, Term, queue_bytes, term_equal


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


def _merge_term_stats(dst: Term, src: Term) -> None:
    """Fold ``src``'s timing into ``dst`` (same structure, same counts)."""
    if isinstance(dst, EventTerm):
        dst.duration.merge(src.duration)
        dst.pre_gap.merge(src.pre_gap)
    else:
        for a, b in zip(dst.body, src.body):
            _merge_term_stats(a, b)


class ScalaTraceCompressor(TraceSink):
    """Intra-process phase of ScalaTrace."""

    def __init__(self, max_window: int = 32, relative_ranks: bool = True) -> None:
        self.max_window = max_window
        self.relative_ranks = relative_ranks
        self._queues: dict[int, list[Term]] = {}
        self._pending_wildcard: dict[tuple[int, int], EventTerm] = {}
        self._last_end: dict[int, float] = {}

    # ------------------------------------------------------------------

    def queue(self, rank: int) -> list[Term]:
        return self._queues.setdefault(rank, [])

    def ranks(self) -> list[int]:
        return sorted(self._queues)

    def stream(self, rank: int):
        return event_emitter(rank, self.on_event, self.on_request_complete)

    def on_event(self, rank: int, ev: CommEvent) -> None:
        queue = self.queue(rank)
        gap = max(0.0, ev.time_start - self._last_end.get(rank, 0.0))
        self._last_end[rank] = max(
            self._last_end.get(rank, 0.0), ev.time_start + ev.duration
        )
        term = EventTerm(sig=event_signature(ev, rank, self.relative_ranks))
        term.duration.add(ev.duration)
        term.pre_gap.add(gap)
        queue.append(term)
        if ev.op == "MPI_Irecv" and ev.wildcard:
            # Like CYPRESS, delay compression until the source resolves —
            # ScalaTrace queues the event and patches it on completion.
            term.pending = True
            self._pending_wildcard[(rank, ev.req)] = term
            return
        self._compress_tail(queue)

    def on_request_complete(self, rank, rid, source, nbytes, when):
        term = self._pending_wildcard.pop((rank, rid), None)
        if term is None:
            return
        sig = list(term.sig)
        sig[1] = encode_peer(source, rank, self.relative_ranks)
        sig[5] = nbytes
        term.sig = tuple(sig)
        term.pending = False
        self._compress_tail(self.queue(rank))

    # ------------------------------------------------------------------

    @staticmethod
    def _window_foldable(terms: list[Term]) -> bool:
        """Terms with unresolved wildcard signatures must not fold."""
        return not any(getattr(t, "pending", False) for t in terms)

    def _compress_tail(self, queue: list[Term]) -> None:
        """Greedy repeated-suffix folding (the ScalaTrace inner loop)."""
        changed = True
        while changed:
            changed = False
            n = len(queue)
            limit = min(self.max_window, n - 1)
            for k in range(1, limit + 1):
                # Case 1: an RSD whose body equals the k-term tail absorbs it.
                if n >= k + 1:
                    prev = queue[n - k - 1]
                    tail = queue[n - k :]
                    if (
                        isinstance(prev, RSD)
                        and len(prev.body) == k
                        and self._window_foldable(tail)
                        and all(term_equal(a, b) for a, b in zip(prev.body, tail))
                    ):
                        for a, b in zip(prev.body, tail):
                            _merge_term_stats(a, b)
                        prev.count += 1
                        del queue[n - k :]
                        changed = True
                        break
                # Case 2: the k-term tail repeats the k terms before it.
                if n >= 2 * k:
                    first = queue[n - 2 * k : n - k]
                    tail = queue[n - k :]
                    if self._window_foldable(first) and self._window_foldable(
                        tail
                    ) and all(term_equal(a, b) for a, b in zip(first, tail)):
                        for a, b in zip(first, tail):
                            _merge_term_stats(a, b)
                        rsd = RSD(count=2, body=first)
                        del queue[n - 2 * k :]
                        queue.append(rsd)
                        changed = True
                        break
            # Any pending (unresolved wildcard) tail blocks compression;
            # handled implicitly because its signature is still provisional.

    # ------------------------------------------------------------------

    def rank_bytes(self, rank: int) -> int:
        return queue_bytes(self.queue(rank))

    def total_bytes(self) -> int:
        return sum(self.rank_bytes(r) for r in self._queues)

    def approx_memory(self, rank: int) -> int:
        """Working-set estimate: the queue plus matcher bookkeeping."""
        return self.rank_bytes(rank) + 16 * len(self.queue(rank))


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
            if term_equal(existing, term):
                _merge_term_stats(existing, term)
                existing_ranks.extend(ranks)
                return
        self.variants.append((list(ranks), term))

    def ranks(self) -> list[int]:
        out: list[int] = []
        for ranks, _ in self.variants:
            out.extend(ranks)
        return sorted(out)

    def approx_bytes(self) -> int:
        total = 0
        for i, (ranks, term) in enumerate(self.variants):
            total += 2 + 4 * _count_runs(ranks)
            if i == 0:
                total += term.approx_bytes()
            else:
                # Additional variants share the structure; only counts and
                # timing blocks are stored again.
                total += 4 * _rsd_nodes(term) + 16
        return total


def _count_runs(ranks: list[int]) -> int:
    """Stride-run count of a sorted rank list (its compressed size)."""
    if not ranks:
        return 0
    runs = 1
    stride = None
    for a, b in zip(ranks, ranks[1:]):
        d = b - a
        if stride is None:
            stride = d
        elif d != stride:
            runs += 1
            stride = None
    return runs


def _rsd_nodes(term: Term) -> int:
    if isinstance(term, EventTerm):
        return 0
    return 1 + sum(_rsd_nodes(t) for t in term.body)


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


def merge_all_queues(
    queues: dict[int, list[Term]], schedule: str = "tree"
) -> MergedQueue:
    """Merge every rank's compressed queue into one job-wide queue."""
    lifted = [lift_queue(q, rank) for rank, q in sorted(queues.items())]
    if not lifted:
        raise ValueError("no queues to merge")
    if schedule == "fold":
        acc = lifted[0]
        for q in lifted[1:]:
            acc = merge_queues(acc, q)
        return acc
    while len(lifted) > 1:
        nxt = []
        for i in range(0, len(lifted) - 1, 2):
            nxt.append(merge_queues(lifted[i], lifted[i + 1]))
        if len(lifted) % 2:
            nxt.append(lifted[-1])
        lifted = nxt
    return lifted[0]


def merged_bytes(queue: MergedQueue) -> int:
    return sum(t.approx_bytes() for t in queue)


def expand_rank(queue: MergedQueue, rank: int) -> list[tuple]:
    """Reconstruct one rank's event-signature stream from the merged queue
    (losslessness check)."""
    from .rsd import expand

    terms: list[Term] = []
    for slot in queue:
        for ranks, term in slot.variants:
            if rank in ranks:
                terms.append(term)
                break
    return expand(terms)
