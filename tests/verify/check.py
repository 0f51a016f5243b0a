"""Workload-driven integrity suite and differential harness.

``repro check FILE`` checks a trace; this checks the tool.  Each
workload runs once and its capture is compressed once
(``compress_streams``); the CST, every per-rank CTT and the merged tree
are checked, with the wildcard audit, and a quarantined rank is a
violation.  ``--differential`` records ground truth in the same run and
requires every compression variant to replay it exactly: ``inline``
(live, seven-item drain buffers, so drains fall inside loops and
request lifetimes), ``deferred`` (the captured lists), ``packed`` (CYPK
blobs) and the merged tree.  ``budgeted`` (a 1-byte memory budget)
keeps no per-rank CTT, so it joins at the container: every variant's
merged bytes must equal ``deferred``'s.  Run it from the repository
root::

    PYTHONPATH=src python -m tests.verify.check mg -n 64 --scale 0.1 \\
        --differential -o integrity-mg.json

Exit 0 when every workload is clean, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core import intra, packed, serialize
from repro.core.decompress import decompress_all, decompress_rank
from repro.core.errors import DecompressionError
from repro.core.intra import CypressConfig, IntraProcessCompressor
from repro.driver import capture_run
from repro.mpisim.pmpi import StreamCaptureSink
from repro.verify import (
    Violation, audit_wildcards, check_cst, check_ctt, check_merged,
)
from repro.workloads import WORKLOADS

from ..helpers import capture_with_truth, default_procs, first_divergence

#: Violations and divergences printed per workload (a report keeps
#: twice as many divergences).
LIMIT = 10


def differential(capture, recorder, deferred) -> dict:
    """Cross-check every compression variant of one capture against
    the ground truth ``recorder`` took in the same run; ``deferred`` is
    the unbudgeted ``compress_streams`` of its streams."""
    nprocs, cst = capture.nprocs, capture.compiled.cst
    divergences: list[str] = []

    def compare(name, replay):
        try:
            traces = replay()
        except DecompressionError as exc:
            divergences.append(
                f"{name} vs truth, rank {exc.rank}: replay raised: {exc}")
            return
        for rank in range(nprocs):
            div = first_divergence(
                [e.call_tuple() for e in traces.get(rank, [])],
                [e.replay_tuple() for e in recorder.events.get(rank, [])],
            )
            if div is not None:
                divergences.append(f"{name} vs truth, rank {rank}: {div}")

    inline = IntraProcessCompressor(cst)
    replayer = StreamCaptureSink()
    replayer.streams = capture.streams
    drain_items, intra.DRAIN_ITEMS = intra.DRAIN_ITEMS, 7
    try:
        replayer.replay_into(inline)
    finally:
        intra.DRAIN_ITEMS = drain_items
    variants = {
        "deferred": deferred,
        "inline": inline,
        "packed": intra.compress_streams(cst, {
            rank: packed.encode_stream(stream).to_bytes()
            for rank, stream in capture.streams.items()
        }),
    }
    for name, comp in variants.items():
        compare(name, lambda: {
            r: decompress_rank(comp.ctt(r)) for r in range(nprocs)})
    merged = deferred.merged(nranks=nprocs)
    compare("merged-replay", lambda: decompress_all(merged, nprocs))

    variants["budgeted"] = intra.compress_streams(
        cst, capture.streams, config=CypressConfig(memory_budget_bytes=1),
        nranks=nprocs,
    )
    blob = serialize.dumps(merged)
    for name in ("inline", "packed", "budgeted"):
        other = serialize.dumps(variants[name].merged(nranks=nprocs))
        if other != blob:
            divergences.append(f"bytes:{name} vs bytes:deferred: "
                               f"{len(other)} != {len(blob)} bytes")
    variants["budgeted"].close_spill()
    return {"nprocs": nprocs, "events": capture.events,
            "variants": list(variants), "ok": not divergences,
            "divergences": divergences[:2 * LIMIT]}


def check_workload(name: str, nprocs: int, scale: float,
                   with_differential: bool) -> tuple[dict, bool]:
    """One run of workload ``name``: its report entry, printed, and
    whether it is clean."""
    w = WORKLOADS[name]
    if with_differential:
        run, recorder = capture_with_truth(
            w.source, nprocs, w.defines(nprocs, scale))
    else:
        run = capture_run(w.source, nprocs, w.defines(nprocs, scale))
    compressor = intra.compress_streams(run.compiled.cst, run.streams)
    violations = check_cst(run.compiled.cst) + [
        Violation("rank-quarantined", q.error, rank=q.rank)
        for q in compressor.quarantine
    ]
    kept = compressor.ranks()
    for rank in kept:
        violations += check_ctt(compressor.ctt(rank), nranks=nprocs)
    merged = compressor.merged(nranks=nprocs, ranks=kept)
    violations += check_merged(merged, nranks=nprocs)
    audit = audit_wildcards(merged)
    entry = {"workload": name, "nprocs": nprocs,
             "violations": [v.to_dict() for v in violations],
             "wildcard_audit": audit.to_dict()}
    found = audit.findings
    extra = f", {len(found)} wildcard finding(s)" if found else ""
    print(f"  {'FAIL' if violations else 'ok  '} {name:10s} n={nprocs}: "
          f"{len(violations)} violation(s){extra}")
    for v in violations[:LIMIT]:
        print(f"       [{v.code}] {v.message}", file=sys.stderr)
    for f in found:
        print(f"       note: {f.format()}")
    if not with_differential:
        return entry, not violations
    diff = entry["differential"] = {
        "workload": name, **differential(run, recorder, compressor)}
    if diff["ok"]:
        print(f"       differential: ok ({diff['events']} events, "
              f"{len(diff['variants'])} variants)")
    else:
        print(f"       differential: {len(diff['divergences'])} "
              "divergence(s)", file=sys.stderr)
        for d in diff["divergences"][:LIMIT]:
            print(f"         {d}", file=sys.stderr)
    return entry, not violations and diff["ok"]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="python -m tests.verify.check")
    p.add_argument("workload", nargs="?", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("-n", "--nprocs", type=int, default=None,
                   help="rank count (default: smallest valid count >= 4)")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--differential", action="store_true",
                   help="cross-check every compression variant against "
                        "ground truth")
    p.add_argument("-o", "--out", default=None, metavar="PATH",
                   help="write the JSON report to PATH")
    args = p.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    entries, ok = [], True
    for name in names:
        w = WORKLOADS[name]
        nprocs = args.nprocs if args.nprocs is not None else default_procs(w)
        w.check_procs(nprocs)
        entry, clean = check_workload(
            name, nprocs, args.scale, args.differential)
        entries.append(entry)
        ok = ok and clean
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"ok": ok, "workloads": entries}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"report -> {args.out}")
    print("PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
