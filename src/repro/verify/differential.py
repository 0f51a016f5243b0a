"""Differential self-verification of the pipeline's equivalence claims.

The codebase claims several independently-implemented paths are
equivalent:

* inline (live) compression — capture-and-drain with a small drain
  size — == deferred compression of the captured streams
  (``compress_streams``);
* the packed codec (CYPK blobs through ``compress_streams``: encode,
  decode, walk) == the list-stream path;
* compression under a 1-byte memory budget (spill, reload, ascending
  fold) == the unbudgeted pipeline (byte-identical);
* every rank's replay is the same before and after the merge, and equals
  the ground-truth recorded sequence.

This harness takes one run of a workload (``repro.driver.capture_run``
with ``truth=True``: ground truth and the raw streams from the same
run) and drives every variant from that capture, so any divergence is a
pipeline bug, not run-to-run noise.  Sequences are
diffed at the **first diverging event** — index plus both events —
rather than byte-level, so a report says *what* diverged.  A variant
whose replay raises is reported the same way, at the first event the
replay could not produce, with the error's text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core import intra, packed, serialize
from repro.core.decompress import (
    _compile, _Walker, decompress_all, decompress_rank, group_payload,
    own_payload,
)
from repro.core.errors import DecompressionError
from repro.core.intra import CypressConfig, IntraProcessCompressor, compress_streams
from repro.driver import Capture
from repro.mpisim.pmpi import StreamCaptureSink


@dataclass(frozen=True)
class Divergence:
    """First diverging event between two supposedly equal sequences."""

    left: str  # variant name, e.g. "deferred"
    right: str  # variant name or "truth"
    rank: int
    index: int  # first diverging event index (or the shorter length)
    left_event: tuple | None  # None when one side is shorter
    right_event: tuple | None
    error: str | None = None  # why ``left`` could not be replayed at all

    def format(self) -> str:
        if self.error is not None:
            return (
                f"{self.left} vs {self.right}, rank {self.rank}: replay "
                f"raised at event {self.index} "
                f"(expected {self.right_event!r}): {self.error}"
            )
        return (
            f"{self.left} vs {self.right}, rank {self.rank}: first "
            f"divergence at event {self.index}: "
            f"{self.left_event!r} != {self.right_event!r}"
        )


@dataclass
class DifferentialReport:
    workload: str
    nprocs: int
    events: int = 0
    variants: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "nprocs": self.nprocs,
            "events": self.events,
            "variants": self.variants,
            "ok": self.ok,
            "divergences": [d.format() for d in self.divergences],
        }


def first_divergence(left_name, right_name, rank, left_seq, right_seq):
    """``None`` when the sequences are equal, else the first difference."""
    for i, (a, b) in enumerate(zip(left_seq, right_seq)):
        if a != b:
            return Divergence(left_name, right_name, rank, i, a, b)
    if len(left_seq) != len(right_seq):
        n = min(len(left_seq), len(right_seq))
        return Divergence(
            left_name, right_name, rank, n,
            left_seq[n] if len(left_seq) > n else None,
            right_seq[n] if len(right_seq) > n else None,
        )
    return None


class _Failed(NamedTuple):
    """A replay that raised: the first event it could not produce, and
    the error's text."""

    index: int
    error: str


def _failed(root, payload, rank: int, exc: DecompressionError) -> _Failed:
    """``exc`` at the length of the prefix one walk of the tree keeps
    (0 when the tree cannot even be compiled into steps)."""
    try:
        steps = _compile(root)
    except DecompressionError:
        return _Failed(0, str(exc))
    return _Failed(len(_Walker(steps, payload, rank, {}).slots), str(exc))


def _replays(compressor, nprocs):
    """Every rank's call tuples, or a :class:`_Failed` for a rank whose
    replay raises."""
    out = {}
    for r in range(nprocs):
        ctt = compressor.ctt(r)
        try:
            out[r] = [e.call_tuple() for e in decompress_rank(ctt)]
        except DecompressionError as exc:
            out[r] = _failed(ctt.root, own_payload, r, exc)
    return out


def _replay_all(merged, nprocs):
    """Every rank's call tuples from one shared-plan walk of ``merged``,
    peers range-checked; a rank no group holds replays as the empty
    sequence.  A raise maps the rank it names (-1 for none) to a
    :class:`_Failed`."""
    try:
        traces = decompress_all(merged, nprocs)
    except DecompressionError as exc:
        rank = exc.rank
        if rank is None:
            return {-1: _Failed(0, str(exc))}
        payload = group_payload(lambda v: v.group_of(rank))
        return {rank: _failed(merged.root, payload, rank, exc)}
    return {
        r: [e.call_tuple() for e in traces.get(r, [])] for r in range(nprocs)
    }


def _compare(left_name, right_name, rank, left, right):
    """:func:`first_divergence` of two replays, either of which may be
    :class:`_Failed`; a failed ``left`` is reported, a failed ``right``
    has been reported where it was replayed."""
    if isinstance(left, _Failed):
        expected = None
        if isinstance(right, list) and left.index < len(right):
            expected = right[left.index]
        return Divergence(
            left_name, right_name, rank, left.index, None, expected,
            error=left.error,
        )
    if isinstance(right, _Failed):
        return None
    return first_divergence(left_name, right_name, rank, left, right)


def differential_check(
    capture: Capture,
    deferred: IntraProcessCompressor,
    *,
    workload: str = "<inline>",
    max_divergences: int = 20,
) -> DifferentialReport:
    """Cross-check every compression variant against ground truth and
    against each other.

    ``capture`` is one run with ``truth=True``; ``deferred`` is
    ``compress_streams`` of its streams without a budget, the variant
    every other one is compared with."""
    nprocs = capture.nprocs
    report = DifferentialReport(
        workload=workload, nprocs=nprocs, events=capture.events,
    )
    truth = {
        r: [e.replay_tuple() for e in capture.truth.get(r, [])]
        for r in range(nprocs)
    }
    cst = capture.compiled.cst

    def note(div):
        if div is not None and len(report.divergences) < max_divergences:
            report.divergences.append(div)

    # -- compression variants, all from the same captured streams --------
    # The live path: emitters into seven-item buffers, so drain
    # boundaries fall inside loops, branches and request lifetimes
    # instead of re-chunking what `deferred` ingests whole.
    inline = IntraProcessCompressor(cst)
    replayer = StreamCaptureSink()
    replayer.streams = capture.streams
    drain_items, intra.DRAIN_ITEMS = intra.DRAIN_ITEMS, 7
    try:
        replayer.replay_into(inline)
    finally:
        intra.DRAIN_ITEMS = drain_items
    packed_streams = {
        rank: packed.encode_stream(stream).to_bytes()
        for rank, stream in capture.streams.items()
    }
    variants = {
        "inline": inline,
        "deferred": deferred,
        # Packed codec round trip.
        "packed": compress_streams(cst, packed_streams),
    }
    report.variants = sorted(variants)
    replays = {name: _replays(comp, nprocs) for name, comp in variants.items()}
    for name in sorted(variants):
        for rank in range(nprocs):
            note(_compare(
                name, "truth", rank, replays[name][rank], truth[rank]
            ))
    base = replays["deferred"]
    for name in sorted(variants):
        if name == "deferred":
            continue
        for rank in range(nprocs):
            if not isinstance(replays[name][rank], _Failed):
                note(_compare(
                    name, "deferred", rank, replays[name][rank], base[rank]
                ))

    # -- byte identity across the variant matrix --------------------------
    # Replay diffs above catch semantic divergence; this catches encoding
    # divergence (equal replays from different record/timing layouts).
    # The budgeted streaming mode joins here, not above: a folded
    # compressor no longer exposes per-rank CTTs (the fold is one-way),
    # so it is compared over the merged container bytes and, on a
    # mismatch, the merged replay.  A 1-byte budget maximizes pressure —
    # every rank folds, and any eviction/reload the interleaving
    # triggers must not change a byte.
    variants["budgeted"] = compress_streams(
        cst, capture.streams,
        config=CypressConfig(memory_budget_bytes=1),
        nranks=nprocs,
    )
    report.variants.append("budgeted")

    merged = variants["deferred"].merged(nranks=nprocs)
    base_blob = serialize.dumps(merged)
    for name in report.variants:
        if name == "deferred":
            continue
        vb = serialize.dumps(variants[name].merged(nranks=nprocs))
        variants[name].close_spill()
        if vb == base_blob:
            continue
        if name == "budgeted":
            replayed = _replay_all(serialize.loads(vb), nprocs)
            for rank in sorted(replayed):
                note(_compare(
                    "budgeted-replay", "per-rank-replay", rank,
                    replayed[rank], base.get(rank, []),
                ))
        note(Divergence(
            f"bytes:{name}", "bytes:deferred", -1, -1,
            (len(vb), "bytes"), (len(base_blob), "bytes"),
        ))

    # -- replay before vs after merge -------------------------------------
    replayed = _replay_all(merged, nprocs)
    for rank in sorted(replayed):
        note(_compare(
            "merged-replay", "per-rank-replay", rank,
            replayed[rank], base.get(rank, []),
        ))
    return report
