"""Seeded fault matrix: prove the checkers detect every damage class.

A checker that always says "clean" is worse than no checker.  This
module is the *negative* half of ``repro check``:

* for every payload-corruption kind
  (:data:`tests.faults.payload.PAYLOAD_KINDS`) it damages a freshly
  merged trace and requires :func:`check_merged` to report at least one
  violation — including the kind's namesake code;
* for every stream-corruption kind (:data:`tests.faults.plan.
  CORRUPT_KINDS`) it requires a bare ``ingest_stream`` of the victim to
  raise :class:`~repro.core.errors.StreamMismatchError` and
  :func:`~repro.core.intra.compress_streams` to quarantine exactly the
  victim rank;
* for the two container kinds it requires a truncated file to fail a
  strict load and salvage to an incomplete prefix, and every one of
  :data:`CONTAINER_BITFLIPS` seeded single-bit flips to be refused with
  :class:`~repro.core.errors.TraceFormatError`.

Same seed → same victims, same damage — a failing matrix entry is
reproducible from the CI report alone.  Run it from the repository
root::

    PYTHONPATH=src python -m tests.faults.matrix cg -n 256 --scale 0.1 \
        --seed 20260807 -o matrix.json

It runs the workload once (``capture_run``), compresses the capture
once (``compress_streams``) and writes the :class:`MatrixReport` as
JSON; the exit code is 0 when every applicable kind was detected.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from repro.cli import _default_procs
from repro.core import serialize
from repro.core.errors import StreamMismatchError, TraceFormatError
from repro.core.inter import merge_all
from repro.core.intra import IntraProcessCompressor, compress_streams
from repro.driver import Capture, capture_run
from repro.verify.invariants import check_merged
from repro.workloads import WORKLOADS

from .data import bitflip, truncate
from .payload import PAYLOAD_KINDS, corrupt_merged
from .plan import CORRUPT_KINDS, FaultPlan
from .streams import corrupt_stream

#: Seeded single-bit flips ``container:bitflip`` applies to the saved
#: container, one at a time; every one must be refused.
CONTAINER_BITFLIPS = 64

#: Violation codes each payload kind must produce (the namesake plus the
#: secondary codes the same damage legitimately trips).
EXPECTED_CODES = {
    "occ-overlap": {"occ-overlap", "occ-regress", "occ-count",
                    "occ-not-contiguous"},
    "occ-hole": {"occ-count", "occ-not-contiguous"},
    "rank-overlap": {"rank-overlap", "ranks-unsorted"},
    "rank-range": {"rank-range"},
    "signature-stale": {"signature-stale"},
    "loop-negative": {"loop-negative"},
    "peer-range": {"peer-range"},
    "visits-regress": {"visits-regress", "visit-overlap", "visit-bounds"},
}


@dataclass
class MatrixEntry:
    kind: str
    detected: bool
    description: str
    codes: list[str] = field(default_factory=list)
    violations: int = 0
    skipped: bool = False  # kind has no site in this trace's shape

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detected": self.detected,
            "description": self.description,
            "codes": self.codes,
            "violations": self.violations,
            "skipped": self.skipped,
        }


@dataclass
class MatrixReport:
    workload: str
    nprocs: int
    seed: int
    entries: list[MatrixEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every *applicable* kind detected.  A kind with no corruption
        site in this trace's shape (e.g. no multi-occurrence record in a
        tiny workload) is skipped, not failed — but at least one kind
        must have actually run."""
        ran = [e for e in self.entries if not e.skipped]
        return bool(ran) and all(e.detected for e in ran)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "ok": self.ok,
            "entries": [e.to_dict() for e in self.entries],
        }


def run_fault_matrix(
    capture: Capture,
    compressor: IntraProcessCompressor,
    *,
    workload: str = "<inline>",
    seed: int = 20260807,
) -> MatrixReport:
    """Run every corruption kind against one workload's trace:
    ``compressor`` is ``compress_streams`` of ``capture``'s streams,
    whose per-rank CTTs every payload kind re-merges."""
    nprocs = capture.nprocs
    cst = capture.compiled.cst
    report = MatrixReport(workload=workload, nprocs=nprocs, seed=seed)
    plan = FaultPlan(seed=seed)
    ctts = [compressor.ctt(r) for r in range(nprocs)]

    for kind in PAYLOAD_KINDS:
        merged = merge_all(ctts, nranks=nprocs)  # fresh victim per kind
        try:
            description = corrupt_merged(
                merged, kind, plan.rng("payload", kind), nranks=nprocs
            )
        except ValueError as exc:
            report.entries.append(MatrixEntry(
                kind=kind, detected=False, skipped=True,
                description=f"skipped, no corruption site: {exc}",
            ))
            continue
        violations = check_merged(merged, nranks=nprocs)
        codes = sorted({v.code for v in violations})
        detected = bool(violations) and bool(
            EXPECTED_CODES[kind] & set(codes)
        )
        report.entries.append(MatrixEntry(
            kind=kind, detected=detected, description=description,
            codes=codes, violations=len(violations),
        ))

    victim = nprocs - 1
    for kind in CORRUPT_KINDS:
        streams = dict(capture.streams)
        streams[victim] = corrupt_stream(
            list(streams[victim]), kind, plan.rng("stream", kind)
        )
        try:
            IntraProcessCompressor(cst).ingest_stream(
                victim, streams[victim]
            )
            strict_raised = False
        except StreamMismatchError:
            strict_raised = True
        lenient = compress_streams(cst, streams)
        quarantined = lenient.quarantine.ranks()
        detected = strict_raised and quarantined == [victim]
        report.entries.append(MatrixEntry(
            kind=f"stream:{kind}",
            detected=detected,
            description=(
                f"rank {victim} stream corrupted ({kind}); strict raise: "
                f"{strict_raised}, quarantined: {quarantined}"
            ),
            codes=["stream-mismatch"] if strict_raised else [],
            violations=int(strict_raised) + len(quarantined),
        ))

    merged = merge_all(ctts, nranks=nprocs)
    report.entries.append(_container_truncate(merged))
    report.entries.append(_container_bitflip(merged, plan))
    return report


def _refused(blob: bytes) -> bool:
    """Whether a strict load refuses ``blob`` with TraceFormatError."""
    try:
        serialize.loads(blob)
    except TraceFormatError:
        return True
    return False


def _container_truncate(merged) -> MatrixEntry:
    """A write cut short: a 256-byte-chunked dump (so a small trace
    still spans several payload sections) cut at 80% must fail a strict
    load and salvage to an incomplete checksum-valid prefix."""
    blob = serialize.dumps(merged, chunk_bytes=256)
    cut = truncate(blob, fraction=0.8)
    refused = _refused(cut)
    try:
        info = serialize.loads(cut, salvage=True).salvage_info
    except TraceFormatError as exc:
        info, salvage = None, f"salvage failed: {exc}"
    else:
        salvage = (
            f"salvage recovered {info['vertices_with_payload']}/"
            f"{info['vertices_total']} vertices"
        )
    detected = refused and info is not None and not info["complete"]
    return MatrixEntry(
        kind="container:truncate",
        detected=detected,
        description=(
            f"{len(blob)}-byte container cut to {len(cut)} bytes; strict "
            f"load refused: {refused}; {salvage}"
        ),
        codes=["trace-format"] if refused else [],
        violations=int(refused),
    )


def _container_bitflip(merged, plan: FaultPlan) -> MatrixEntry:
    """Bit rot: each of :data:`CONTAINER_BITFLIPS` seeded single-bit
    flips of the container must be refused by a strict load."""
    blob = serialize.dumps(merged)
    rng = plan.rng("container", "bitflip")
    refused = sum(
        _refused(bitflip(blob, rng)) for _ in range(CONTAINER_BITFLIPS)
    )
    return MatrixEntry(
        kind="container:bitflip",
        detected=refused == CONTAINER_BITFLIPS,
        description=(
            f"{refused}/{CONTAINER_BITFLIPS} single-bit flips of a "
            f"{len(blob)}-byte container refused"
        ),
        codes=["trace-format"] if refused else [],
        violations=refused,
    )


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m tests.faults.matrix",
        description="seeded corruption matrix over one workload: every "
                    "damage kind must be detected",
    )
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("-n", "--nprocs", type=int, default=None,
                   help="rank count (default: smallest valid count >= 4)")
    p.add_argument("--scale", type=float, default=0.3,
                   help="iteration-count scale factor (default: 0.3)")
    p.add_argument("--seed", type=int, default=20260807,
                   help="FaultPlan seed (default: 20260807)")
    p.add_argument("-o", "--out", default=None, metavar="PATH",
                   help="write the JSON report to PATH")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    nprocs = args.nprocs if args.nprocs is not None else _default_procs(w)
    w.check_procs(nprocs)
    run = capture_run(w.source, nprocs, w.defines(nprocs, args.scale))
    compressor = compress_streams(run.compiled.cst, run.streams)
    report = run_fault_matrix(
        run, compressor, workload=args.workload, seed=args.seed,
    )
    missed = [e for e in report.entries if not e.detected and not e.skipped]
    skipped = [e for e in report.entries if e.skipped]
    if report.ok:
        note = f" ({len(skipped)} without a site)" if skipped else ""
        print(f"{args.workload} n={nprocs}: all "
              f"{len(report.entries) - len(skipped)} applicable "
              f"corruption kinds detected{note}")
    else:
        print(f"{args.workload} n={nprocs}: {len(missed)} kind(s) MISSED",
              file=sys.stderr)
        for e in missed:
            print(f"  {e.kind}: {e.description}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report -> {args.out}")
    print("PASSED" if report.ok else "FAILED")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
