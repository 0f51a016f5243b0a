"""RSD / PRSD terms and the greedy tail fold of dynamic-only compression.

ScalaTrace (Noeth et al. [14]) represents compressed traces as queues of
*regular section descriptors*: an RSD is ``<count, body>`` where the body
is a sequence of events or nested RSDs (then called a power-RSD / PRSD).
``<100, <10, a, b>, c>``-style nesting captures loop nests discovered
bottom-up from the event stream itself.

Every term carries a structural signature (``structure``) — the body
shape with counts *excluded* — so that inter-process merging can align
terms whose iteration counts differ per rank.

:class:`QueueCompressor` is the intra-process phase both baselines share
(ScalaTrace-2 [18] runs the same greedy fold with elastic terms): after
each event is appended, the tail window is compared against the terms
before it; a repeat becomes a loop term, and a loop followed by another
copy of its body counts one more trip.  Every arriving event pays a
search over up to ``max_window`` candidate repeat lengths, each an O(k)
term comparison — the bottom-up pattern probing whose cost CYPRESS's
static structure eliminates.  The terms answer ``matches`` / ``absorb``
themselves, so the loop does not know which baseline it folds for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.timing import TimeStats
from repro.mpisim.events import CommEvent
from repro.mpisim.pmpi import TraceSink, event_emitter

# An event's signature: the compression key (op + params, no time).
EventSig = tuple


@dataclass
class EventTerm:
    """A single (possibly repeated) traced event."""

    sig: EventSig
    duration: TimeStats = field(default_factory=TimeStats)
    pre_gap: TimeStats = field(default_factory=TimeStats)
    # Unresolved wildcard receive: the signature is provisional, so the
    # matcher must not fold this term yet (two pending receives with equal
    # provisional signatures may resolve to different sources).
    pending: bool = False

    @property
    def structure(self) -> tuple:
        return ("E", self.sig)

    def matches(self, other: Term) -> bool:
        """Structural equality *including* counts (intra-process matching)."""
        return isinstance(other, EventTerm) and self.sig == other.sig

    def absorb(self, other: EventTerm) -> None:
        """Fold a matching term's timing into this one."""
        self.duration.merge(other.duration)
        self.pre_gap.merge(other.pre_gap)

    def approx_bytes(self) -> int:
        op = self.sig[0]
        return (
            len(op)
            + 6 * (len(self.sig) - 1)
            + self.duration.approx_bytes()
            + self.pre_gap.approx_bytes()
        )


@dataclass
class RSD:
    """``count`` repetitions of ``body`` (events and/or nested RSDs)."""

    count: int
    body: list["Term"]

    @classmethod
    def twice(cls, body: list["Term"]) -> RSD:
        return cls(count=2, body=body)

    @property
    def structure(self) -> tuple:
        # Counts excluded: two loops with different trip counts share shape.
        return ("R", tuple(t.structure for t in self.body))

    def matches(self, other: Term) -> bool:
        return (
            isinstance(other, RSD)
            and self.count == other.count
            and len(self.body) == len(other.body)
            and all(x.matches(y) for x, y in zip(self.body, other.body))
        )

    def absorb(self, other: RSD) -> None:
        for a, b in zip(self.body, other.body):
            a.absorb(b)

    def bump(self) -> None:
        """Count one more trip."""
        self.count += 1

    def approx_bytes(self) -> int:
        return 4 + sum(t.approx_bytes() for t in self.body)


Term = EventTerm | RSD


def expand(queue: list[Term]) -> list[EventSig]:
    """Decompress a term queue back into the flat event-signature stream."""
    out: list[EventSig] = []

    def walk(term: Term) -> None:
        if isinstance(term, EventTerm):
            out.append(term.sig)
        else:
            for _ in range(term.count):
                for t in term.body:
                    walk(t)

    for term in queue:
        walk(term)
    return out


def _foldable(terms: list) -> bool:
    """No term waits on a wildcard's source (loops never do)."""
    return not any(getattr(t, "pending", False) for t in terms)


class QueueCompressor(TraceSink):
    """One queue of terms per rank, folded greedily at its tail.

    A subclass names its loop term (``loop``: a class with ``twice(body)``
    and ``bump()``), the term an event becomes (:meth:`term`) and how a
    resolved wildcard receive patches its provisional term
    (:meth:`resolve`)."""

    loop: type

    def __init__(self, max_window: int = 32, relative_ranks: bool = True) -> None:
        self.max_window = max_window
        self.relative_ranks = relative_ranks
        self._queues: dict[int, list] = {}
        self._pending: dict[tuple[int, int], object] = {}
        self._last_end: dict[int, float] = {}

    def term(self, ev: CommEvent, rank: int, gap: float):
        raise NotImplementedError

    def resolve(self, term, rank: int, source: int, nbytes: int) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------

    def queue(self, rank: int) -> list:
        return self._queues.setdefault(rank, [])

    def stream(self, rank: int):
        return event_emitter(rank, self.on_event, self.on_request_complete)

    def on_event(self, rank: int, ev: CommEvent) -> None:
        queue = self.queue(rank)
        last_end = self._last_end.get(rank, 0.0)
        self._last_end[rank] = max(last_end, ev.time_start + ev.duration)
        term = self.term(ev, rank, max(0.0, ev.time_start - last_end))
        queue.append(term)
        if ev.op == "MPI_Irecv" and ev.wildcard:
            # Like CYPRESS, delay compression until the source resolves —
            # the term waits, unfoldable, and is patched on completion.
            term.pending = True
            self._pending[(rank, ev.req)] = term
            return
        self._compress_tail(queue)

    def on_request_complete(self, rank, rid, source, nbytes, when):
        term = self._pending.pop((rank, rid), None)
        if term is None:
            return
        self.resolve(term, rank, source, nbytes)
        term.pending = False
        self._compress_tail(self.queue(rank))

    def _compress_tail(self, queue: list) -> None:
        """Greedy repeated-suffix folding (the ScalaTrace inner loop):
        window ``k`` ascending, case 1 before case 2, and a fresh search
        after every fold."""
        loop = self.loop
        while True:
            n = len(queue)
            for k in range(1, min(self.max_window, n - 1) + 1):
                # Case 1: a loop whose body matches the k-term tail absorbs it.
                prev = queue[n - k - 1]
                tail = queue[n - k :]
                if (
                    isinstance(prev, loop)
                    and len(prev.body) == k
                    and _foldable(tail)
                    and all(a.matches(b) for a, b in zip(prev.body, tail))
                ):
                    for a, b in zip(prev.body, tail):
                        a.absorb(b)
                    prev.bump()
                    del queue[n - k :]
                    break
                # Case 2: the k-term tail repeats the k terms before it.
                if n >= 2 * k:
                    first = queue[n - 2 * k : n - k]
                    if (
                        _foldable(first)
                        and _foldable(tail)
                        and all(a.matches(b) for a, b in zip(first, tail))
                    ):
                        for a, b in zip(first, tail):
                            a.absorb(b)
                        del queue[n - 2 * k :]
                        queue.append(loop.twice(first))
                        break
            else:
                return

    def approx_memory(self, rank: int) -> int:
        """Working-set estimate (Fig. 16's memory column): the queue's
        terms plus matcher bookkeeping."""
        queue = self.queue(rank)
        return sum(t.approx_bytes() for t in queue) + 16 * len(queue)
