"""ScalaTrace-2 reimplementation (Wu & Mueller [18]).

ScalaTrace-2 improves on ScalaTrace in two ways this module models:

* **Elastic intra-process terms** — events that differ only in *data*
  parameters (message size, peer offset) no longer break RSD formation;
  the varying values are collected per elastic slot as stride-compressed
  value sequences.  This is what rescues SP-style codes whose message
  sizes vary across iterations.  The fold itself is ScalaTrace's
  (:class:`~.rsd.QueueCompressor`), over slots that match by shape.
* **Loop-agnostic inter-node merge** — instead of O(n²) alignment, ranks
  are bucketed by a whole-queue structural signature (O(n) per rank);
  within a bucket merging is positional.  When the number of distinct
  value-sequence variants at a slot exceeds ``variant_limit``, the values
  collapse into a histogram summary — this is the *lossy, probabilistic*
  aspect the paper notes ("only preserves partial communication
  information and may lose much information for better compression").

Losslessness contract: per-rank (intra) expansion is exact; after the
inter merge, expansion is exact only while no slot overflowed its variant
limit (``merged.lossy`` reports it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sequences import IntSequence
from repro.core.timing import TimeStats
from repro.mpisim.events import CommEvent

from .rsd import QueueCompressor
from .scalatrace import event_signature


def elastic_shape(sig: tuple) -> tuple:
    """The signature with its two "data" fields (peer delta at 1, nbytes
    at 5) blanked out; they live in per-slot value sequences instead."""
    peer_mode = sig[1][0]
    return (
        sig[0], ("?", peer_mode), sig[2], sig[3], sig[4], "?",
        sig[6], sig[7], sig[8], sig[9], sig[10], sig[11],
    )


@dataclass
class ElasticEvent:
    """An event slot with possibly-varying peer delta and size."""

    shape: tuple
    peer_mode: str
    peers: IntSequence = field(default_factory=IntSequence)
    sizes: IntSequence = field(default_factory=IntSequence)
    duration: TimeStats = field(default_factory=TimeStats)
    pre_gap: TimeStats = field(default_factory=TimeStats)
    # Its one value is provisional (an unresolved wildcard receive): the
    # matcher must not fold a slot whose value may still be patched.
    pending: bool = False

    def matches(self, other: ETerm) -> bool:
        # Shape equality; an event's shape never equals a loop's.
        return self.shape == other.shape

    def absorb(self, other: ElasticEvent) -> None:
        """Fold a same-shape slot's values and timing into this one."""
        for v in other.peers:
            self.peers.append(v)
        for v in other.sizes:
            self.sizes.append(v)
        self.duration.merge(other.duration)
        self.pre_gap.merge(other.pre_gap)

    def add(self, sig: tuple, duration: float, gap: float) -> None:
        self.peers.append(sig[1][1])
        self.sizes.append(sig[5])
        self.duration.add(duration)
        self.pre_gap.add(gap)

    def approx_bytes(self) -> int:
        return (
            len(self.shape[0])
            + 6 * (len(self.shape) - 1)
            + self.peers.approx_bytes()
            + self.sizes.approx_bytes()
            + self.duration.approx_bytes()
            + self.pre_gap.approx_bytes()
        )

    def signatures(self) -> list[tuple]:
        """Every concrete signature of the slot, in occurrence order
        (replay)."""
        s = list(self.shape)
        out = []
        for peer, size in zip(self.peers.to_list(), self.sizes.to_list()):
            s[1] = (self.peer_mode, peer)
            s[5] = size
            out.append(tuple(s))
        return out


@dataclass
class ElasticRSD:
    """A loop over elastic slots; iteration count per activation."""

    counts: IntSequence
    body: list["ETerm"]
    _shape: tuple | None = None

    @classmethod
    def twice(cls, body: list["ETerm"]) -> ElasticRSD:
        return cls(counts=IntSequence.from_values([2]), body=body)

    @property
    def shape(self) -> tuple:
        # Cached: body *shapes* are immutable once built (only values and
        # counts mutate), and the matcher compares shapes per event.
        if self._shape is None:
            self._shape = ("R", tuple(t.shape for t in self.body))
        return self._shape

    def matches(self, other: ETerm) -> bool:
        return self.shape == other.shape

    def absorb(self, other: ElasticRSD) -> None:
        for v in other.counts:
            self.counts.append(v)
        for a, b in zip(self.body, other.body):
            a.absorb(b)

    def bump(self) -> None:
        """Count one more trip of the latest activation."""
        values = self.counts.to_list()
        values[-1] += 1
        self.counts = IntSequence.from_values(values)

    def approx_bytes(self) -> int:
        return self.counts.approx_bytes() + sum(t.approx_bytes() for t in self.body)


ETerm = ElasticEvent | ElasticRSD


def _queue_shape(queue: list[ETerm]) -> tuple:
    return tuple(t.shape for t in queue)


class ScalaTrace2Compressor(QueueCompressor):
    """Intra-process phase of ScalaTrace-2."""

    loop = ElasticRSD

    def term(self, ev: CommEvent, rank: int, gap: float) -> ElasticEvent:
        sig = event_signature(ev, rank, self.relative_ranks)
        if ev.op == "MPI_Irecv" and ev.wildcard and self.relative_ranks:
            # The resolved source will be stored relative, like every other
            # peer; give the provisional slot the final ('rel') shape now.
            sig = (sig[0], ("rel", sig[1][1])) + sig[2:]
        slot = ElasticEvent(shape=elastic_shape(sig), peer_mode=sig[1][0])
        slot.add(sig, ev.duration, gap)
        return slot

    def resolve(self, slot: ElasticEvent, rank, source, nbytes) -> None:
        # A pending slot never folded, so its one value is the provisional one.
        delta = source - rank if slot.peer_mode == "rel" else source
        slot.peers = IntSequence.from_values([delta])
        slot.sizes = IntSequence.from_values([nbytes])


# ---------------------------------------------------------------------------
# Loop-agnostic inter-node merge.
# ---------------------------------------------------------------------------


@dataclass
class ST2Slot:
    """One merged queue slot: shape + per-rank-group value variants."""

    shape: tuple
    # Variants: (ranks, term). Collapses to a summary when over the limit.
    variants: list[tuple[list[int], ETerm]] = field(default_factory=list)
    summarized: bool = False


@dataclass
class ST2Merged:
    slots: list[ST2Slot]
    lossy: bool = False


def _values_equal(a: ETerm, b: ETerm) -> bool:
    if isinstance(a, ElasticEvent) and isinstance(b, ElasticEvent):
        return a.peers == b.peers and a.sizes == b.sizes
    if isinstance(a, ElasticRSD) and isinstance(b, ElasticRSD):
        return a.counts == b.counts and all(
            _values_equal(x, y) for x, y in zip(a.body, b.body)
        )
    return False


def _summarize(term: ETerm) -> ETerm:
    """Collapse value detail into a compact (lossy) representative."""
    if isinstance(term, ElasticEvent):
        out = ElasticEvent(shape=term.shape, peer_mode=term.peer_mode)
        peers = term.peers.to_list()
        sizes = term.sizes.to_list()
        # Keep only the distinct-value envelope: first occurrence of each.
        seen: set[tuple[int, int]] = set()
        for p, s in zip(peers, sizes):
            if (p, s) not in seen:
                seen.add((p, s))
                out.peers.append(p)
                out.sizes.append(s)
        out.duration = term.duration.copy()
        out.pre_gap = term.pre_gap.copy()
        return out
    return ElasticRSD(
        counts=IntSequence.from_values([max(term.counts.to_list() or [0])]),
        body=[_summarize(t) for t in term.body],
    )


def merge_all_st2(
    queues: dict[int, list[ETerm]], variant_limit: int = 8
) -> ST2Merged:
    """Loop-agnostic inter-node merge: bucket ranks by whole-queue shape,
    then merge positionally.  O(total terms), no alignment DP."""
    buckets: dict[tuple, list[int]] = {}
    for rank in sorted(queues):
        buckets.setdefault(_queue_shape(queues[rank]), []).append(rank)
    lossy = False
    # Slot streams are concatenated bucket-by-bucket; ranks in other buckets
    # simply do not participate in a slot (paper: missing call paths are
    # skipped per process).
    slots: list[ST2Slot] = []
    for shape_key, ranks in sorted(buckets.items(), key=lambda kv: kv[1][0]):
        for pos, term_shape in enumerate(shape_key):
            slot = ST2Slot(shape=term_shape)
            for rank in ranks:
                term = queues[rank][pos]
                placed = False
                for variant_ranks, variant_term in slot.variants:
                    if _values_equal(variant_term, term):
                        variant_ranks.append(rank)
                        _merge_times(variant_term, term)
                        placed = True
                        break
                if not placed:
                    slot.variants.append(([rank], term))
            if len(slot.variants) > variant_limit:
                # Probabilistic summary: one lossy representative.
                all_ranks = sorted(r for vr, _ in slot.variants for r in vr)
                rep = _summarize(slot.variants[0][1])
                for _, term in slot.variants[1:]:
                    s = _summarize(term)
                    _absorb_summary(rep, s)
                slot.variants = [(all_ranks, rep)]
                slot.summarized = True
                lossy = True
            slots.append(slot)
    return ST2Merged(slots=slots, lossy=lossy)


def _merge_times(dst: ETerm, src: ETerm) -> None:
    if isinstance(dst, ElasticEvent):
        dst.duration.merge(src.duration)
        dst.pre_gap.merge(src.pre_gap)
    else:
        for a, b in zip(dst.body, src.body):
            _merge_times(a, b)


def _absorb_summary(dst: ETerm, src: ETerm) -> None:
    if isinstance(dst, ElasticEvent):
        assert isinstance(src, ElasticEvent)
        seen = set(zip(dst.peers.to_list(), dst.sizes.to_list()))
        for p, s in zip(src.peers.to_list(), src.sizes.to_list()):
            if (p, s) not in seen:
                seen.add((p, s))
                dst.peers.append(p)
                dst.sizes.append(s)
        dst.duration.merge(src.duration)
        dst.pre_gap.merge(src.pre_gap)
    else:
        assert isinstance(src, ElasticRSD)
        m = max(list(dst.counts) + list(src.counts))
        dst.counts = IntSequence.from_values([m])
        for a, b in zip(dst.body, src.body):
            _absorb_summary(a, b)


# ---------------------------------------------------------------------------
# Expansion (replay) — exact while no slot was summarized.
# ---------------------------------------------------------------------------


def expand_intra(queue: list[ETerm]) -> list[tuple]:
    """A rank's signature stream from its folded queue.  A term's value
    sequences are decoded once, the first time the walk reaches it."""
    out: list[tuple] = []
    # id(term) -> [its next occurrence (activation), its decoded values]
    state: dict[int, list] = {}

    def walk(term: ETerm) -> None:
        st = state.get(id(term))
        if st is None:
            values = (
                term.signatures() if isinstance(term, ElasticEvent)
                else term.counts.to_list()
            )
            st = state[id(term)] = [0, values]
        n, values = st
        st[0] = n + 1
        if isinstance(term, ElasticEvent):
            out.append(values[n])
        else:
            for _ in range(values[n] if n < len(values) else 0):
                for t in term.body:
                    walk(t)

    for term in queue:
        walk(term)
    return out


def expand_rank_st2(merged: ST2Merged, rank: int) -> list[tuple]:
    """Reconstruct a rank's stream from the merged (possibly lossy) form."""
    terms: list[ETerm] = []
    for slot in merged.slots:
        for ranks, term in slot.variants:
            if rank in ranks:
                terms.append(term)
                break
    return expand_intra(terms)
