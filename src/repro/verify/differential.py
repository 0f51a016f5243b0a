"""Differential self-verification of the pipeline's equivalence claims.

The codebase claims several independently-implemented paths are
equivalent:

* inline (callback) compression — capture-and-drain with a small drain
  size — == deferred compression of the captured streams
  (``compress_streams``);
* the packed codec (CYPK blobs through ``compress_streams``: encode,
  decode, walk) == the list-stream path;
* compression under a 1-byte memory budget (spill, reload, ascending
  fold) == the unbudgeted pipeline (byte-identical);
* every rank's replay is the same before and after the merge, and equals
  the ground-truth recorded sequence.

This harness runs a workload *once* (capturing both ground truth and the
raw streams) and drives every variant from the same capture, so any
divergence is a pipeline bug, not run-to-run noise.  Sequences are
diffed at the **first diverging event** — index plus both events —
rather than byte-level, so a report says *what* diverged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import intra, packed, serialize
from repro.core.decompress import decompress_all, decompress_rank
from repro.core.intra import CypressConfig, IntraProcessCompressor, compress_streams
from repro.driver import run_compiled
from repro.mpisim.pmpi import MultiSink, RecordingSink, StreamCaptureSink
from repro.static.instrument import compile_minimpi


@dataclass(frozen=True)
class Divergence:
    """First diverging event between two supposedly equal sequences."""

    left: str  # variant name, e.g. "deferred"
    right: str  # variant name or "truth"
    rank: int
    index: int  # first diverging event index (or the shorter length)
    left_event: tuple | None  # None when one side is shorter
    right_event: tuple | None

    def format(self) -> str:
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


def _replays(compressor, nprocs):
    return {
        r: [e.call_tuple() for e in decompress_rank(compressor.ctt(r))]
        for r in range(nprocs)
    }


def _replay_all(merged, nprocs, nranks=None):
    """Every rank's call tuples from one shared-plan walk of ``merged``
    (``nranks`` as in ``decompress_all``); a rank no group holds replays
    as the empty sequence."""
    traces = decompress_all(merged, nranks)
    return {
        r: [e.call_tuple() for e in traces.get(r, [])] for r in range(nprocs)
    }


def differential_check(
    source: str,
    nprocs: int,
    defines: dict[str, int] | None = None,
    *,
    workload: str = "<inline>",
    max_divergences: int = 20,
) -> DifferentialReport:
    """Cross-check every compression variant against ground truth and
    against each other."""
    report = DifferentialReport(workload=workload, nprocs=nprocs)
    compiled = compile_minimpi(source)
    recorder = RecordingSink()
    capture = StreamCaptureSink()
    result = run_compiled(
        compiled, nprocs, defines=defines,
        tracer=MultiSink([recorder, capture]),
    )
    report.events = result.total_events
    truth = {
        r: [e.replay_tuple() for e in recorder.events.get(r, [])]
        for r in range(nprocs)
    }

    def note(div):
        if div is not None and len(report.divergences) < max_divergences:
            report.divergences.append(div)

    # -- compression variants, all from the same captured streams --------
    # The live path: callbacks into seven-item buffers, so drain
    # boundaries fall inside loops, branches and request lifetimes
    # instead of re-chunking what `deferred` ingests whole.
    inline = IntraProcessCompressor(compiled.cst)
    drain_items, intra.DRAIN_ITEMS = intra.DRAIN_ITEMS, 7
    try:
        capture.replay_into(inline)
    finally:
        intra.DRAIN_ITEMS = drain_items
    packed_streams = {
        rank: packed.encode_stream(stream).to_bytes()
        for rank, stream in capture.streams.items()
    }
    variants = {
        "inline": inline,
        "deferred": compress_streams(compiled.cst, capture.streams),
        # Packed codec round trip.
        "packed": compress_streams(compiled.cst, packed_streams),
    }
    report.variants = sorted(variants)
    replays = {name: _replays(comp, nprocs) for name, comp in variants.items()}
    for name in sorted(variants):
        for rank in range(nprocs):
            note(first_divergence(
                name, "truth", rank, replays[name][rank], truth[rank]
            ))
    base = replays["deferred"]
    for name in sorted(variants):
        if name == "deferred":
            continue
        for rank in range(nprocs):
            note(first_divergence(
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
        compiled.cst, capture.streams,
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
            replayed = _replay_all(serialize.loads(vb), nprocs, nranks=nprocs)
            for rank in range(nprocs):
                note(first_divergence(
                    "budgeted-replay", "per-rank-replay", rank,
                    replayed[rank], base[rank],
                ))
        note(Divergence(
            f"bytes:{name}", "bytes:deferred", -1, -1,
            (len(vb), "bytes"), (len(base_blob), "bytes"),
        ))

    # -- replay before vs after merge -------------------------------------
    replayed = _replay_all(merged, nprocs, nranks=nprocs)
    for rank in range(nprocs):
        note(first_divergence(
            "merged-replay", "per-rank-replay", rank, replayed[rank], base[rank],
        ))
    return report
