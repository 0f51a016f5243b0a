"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``trace``    — run a workload under CYPRESS and write the compressed trace
* ``compare``  — run one workload with every compression method, print sizes
* ``replay``   — decompress a trace file and print/replay one rank
* ``predict``  — SIM-MPI performance prediction from a trace file
* ``cst``      — compile a MiniMPI file and print its CST
* ``patterns`` — ASCII communication-matrix heatmap of a workload
* ``info``     — per-op summary of a trace file (from the compressed form)
* ``export``   — flatten a trace file to text or CSV
* ``diff``     — compare two trace files by replayed call sequences
* ``verify``   — end-to-end self-check: trace a workload, decompress, and
  compare against ground truth (sequence preservation)
* ``hotspots`` — which loops/call sites dominate communication time
* ``faultsmoke`` — run the seeded fault-injection matrix (stream
  corruption, trace truncation, bit flips) and check every degraded
  mode recovers; writes a JSON report for CI
* ``check``    — trace-integrity suite (docs/INTERNALS.md §8): structural
  invariants over the CST and (merged) CTTs, the wildcard nondeterminism
  audit, and optionally the differential harness and the seeded payload
  fault matrix; exits nonzero on invariant violations
"""

from __future__ import annotations

import argparse
import sys

from repro.workloads import WORKLOADS

#: Exit code for a corrupted/unreadable trace file (distinct from the
#: generic failure 1 and argparse's 2) so scripts can tell "the data is
#: damaged — retry with --salvage" apart from every other failure.
EXIT_CORRUPT_TRACE = 3


def _load_trace(path: str, salvage: bool = False):
    """Load a trace for replay/query/info; a damaged file exits with
    :data:`EXIT_CORRUPT_TRACE` and a one-line ``--salvage`` hint, and a
    salvaged (incomplete) one warns how much was recovered."""
    from repro.core import serialize
    from repro.core.errors import TraceFormatError

    try:
        merged = serialize.load(path, salvage=salvage)
    except TraceFormatError as exc:
        print(f"error: corrupted trace {path!r}: {exc}", file=sys.stderr)
        if not salvage:
            print("hint: retry with --salvage to recover the longest "
                  "checksum-valid prefix", file=sys.stderr)
        raise SystemExit(EXIT_CORRUPT_TRACE)
    info = merged.salvage_info
    if info is not None and not info["complete"]:
        print(
            f"WARNING: trace {path!r} salvaged — "
            f"{info['vertices_with_payload']}/{info['vertices_total']} "
            f"vertices recovered ({info['error']})",
            file=sys.stderr,
        )
    return merged


def _parse_bytes(value: str) -> int:
    """``'64M'`` / ``'512K'`` / ``'2G'`` / plain integer -> bytes
    (binary units)."""
    s = value.strip().upper()
    mult = 1
    if s and s[-1] in "KMG":
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[s[-1]]
        s = s[:-1]
    try:
        return int(s) * mult
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid byte size {value!r}")


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("-n", "--nprocs", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0,
                   help="iteration-count scale factor (1.0 = repo default)")


def _add_salvage_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--salvage", action="store_true",
                   help="recover the longest checksum-valid prefix of a "
                        "damaged trace instead of failing")


def _default_procs(w) -> int:
    """Smallest valid rank count >= 4 (else the smallest valid one) —
    big enough for real grouping, small enough for CI."""
    eligible = [p for p in w.valid_procs if p >= 4]
    return min(eligible or w.valid_procs)


def _selfcheck(compiled_cst, merged, nprocs: int) -> int:
    """Shared --selfcheck tail for trace/verify: invariant-check the
    artifacts just produced; returns the number of violations."""
    from repro import obs
    from repro.verify import check_cst, check_merged, publish_verify_metrics

    violations = check_cst(compiled_cst) + check_merged(merged, nranks=nprocs)
    publish_verify_metrics(
        obs.active(), checks=2, violations=len(violations)
    )
    if violations:
        print(f"SELFCHECK FAILED: {len(violations)} violation(s)",
              file=sys.stderr)
        for v in violations[:10]:
            print(f"  [{v.code}] {v.message}", file=sys.stderr)
    else:
        print("selfcheck: trace invariants OK")
    return len(violations)


def _add_metrics_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics", action="store_true",
                   help="print a pipeline-metrics summary (stage spans, "
                        "counters, cache hit rates) after the command")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write pipeline metrics as JSON to PATH "
                        "(schema: repro.obs.METRICS_SCHEMA)")


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.core import run_cypress

    w = WORKLOADS[args.workload]
    w.check_procs(args.nprocs)
    config = None
    if args.memory_budget is not None:
        from repro.core.intra import CypressConfig

        config = CypressConfig(memory_budget_bytes=args.memory_budget)
    run = run_cypress(
        w.source, args.nprocs, defines=w.defines(args.nprocs, args.scale),
        config=config,
    )
    nbytes = run.save(args.output, gzip=args.gzip)
    print(f"{args.workload} on {args.nprocs} ranks:")
    print(f"  events traced    : {run.run_result.total_events}")
    print(f"  virtual time     : {run.run_result.elapsed / 1e6:.3f} s")
    print(f"  compressed trace : {nbytes} bytes -> {args.output}")
    if args.selfcheck and _selfcheck(run.compiled.cst, run.merge(),
                                     args.nprocs):
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import measure_all_methods

    w = WORKLOADS[args.workload]
    m = measure_all_methods(w, args.nprocs, scale=args.scale)
    print(f"{args.workload} on {args.nprocs} ranks "
          f"({m.app_events} events, base run {m.base_seconds:.2f}s):")
    print(f"  {'method':14s} {'bytes':>10s} {'+gzip':>10s} "
          f"{'intra-ovh':>10s} {'inter':>9s}")
    for name, r in m.methods.items():
        gz = str(r.gzip_bytes) if r.gzip_bytes is not None else "-"
        print(
            f"  {name:14s} {r.trace_bytes:10d} {gz:>10s} "
            f"{m.overhead_pct(name, 'intra'):9.1f}% {r.inter_seconds:8.3f}s"
        )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.core import decompress_merged_rank
    from repro.core.export import format_peer

    merged = _load_trace(args.trace, salvage=args.salvage)
    events = decompress_merged_rank(merged, args.rank)
    print(f"rank {args.rank}: {len(events)} events")
    for ev in events[: args.limit]:
        rendered = format_peer(ev.peer, ev.wildcard)
        peer = f" peer={rendered}" if rendered is not None else ""
        size = f" bytes={ev.nbytes}" if ev.nbytes else ""
        print(f"  {ev.op}{peer}{size} tag={ev.tag}")
    if len(events) > args.limit:
        print(f"  ... and {len(events) - args.limit} more")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.core import decompress_all
    from repro.replay import fit_loggp, predict

    merged = _load_trace(args.trace, salvage=args.salvage)
    traces = decompress_all(merged)
    params = fit_loggp()
    result = predict(traces, params)
    print(f"ranks          : {len(traces)}")
    print(f"predicted time : {result.elapsed / 1e6:.4f} s")
    print(f"comm fraction  : {result.comm_fraction() * 100:.1f}%")
    bottleneck = result.bottleneck_ranks(3)
    if bottleneck:
        waits = ", ".join(
            f"r{r}={result.wait_fraction(r) * 100:.0f}%" for r in bottleneck
        )
        print(f"least-waiting  : {waits} (likely bottleneck ranks)")
    return 0


def cmd_cst(args: argparse.Namespace) -> int:
    from repro.static import compile_minimpi

    source = open(args.file).read() if args.file != "-" else sys.stdin.read()
    compiled = compile_minimpi(source, source_name=args.file)
    print(compiled.cst.pretty())
    print(f"\n{compiled.cst.size()} vertices, "
          f"compile {compiled.compile_seconds * 1000:.1f} ms")
    return 0


def cmd_patterns(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis import ascii_heatmap, communication_matrix, message_sizes
    from repro.core import run_cypress

    w = WORKLOADS[args.workload]
    w.check_procs(args.nprocs)
    run = run_cypress(
        w.source, args.nprocs, defines=w.defines(args.nprocs, args.scale)
    )
    matrix = communication_matrix(run.merge(), args.nprocs)
    print(f"{args.workload} communication matrix ({args.nprocs} ranks, "
          f"{int(np.sum(matrix)) // 1024} KB total):")
    print(ascii_heatmap(matrix))
    print("message sizes:", dict(sorted(message_sizes(run.merge()).items())))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.analysis.report import summarize

    merged = _load_trace(args.trace, salvage=args.salvage)
    print(summarize(merged).format())
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.core import export

    merged = _load_trace(args.trace, salvage=args.salvage)
    ranks = [int(r) for r in args.ranks.split(",")] if args.ranks else None
    if args.format == "csv":
        text = export.to_csv(merged, ranks)
    else:
        text = export.to_text(merged, ranks)
    if args.output == "-":
        print(text, end="")
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    return 0


def cmd_hotspots(args: argparse.Namespace) -> int:
    from repro.analysis.hotspots import hotspots, top_leaves

    merged = _load_trace(args.trace, salvage=args.salvage)
    tree = hotspots(merged)
    print(tree.format())
    print("\ntop call sites:")
    for h in top_leaves(merged, args.top):
        print(f"  gid={h.gid:4d} {h.label:<16s} {h.total_us / 1e3:10.2f} ms "
              f"({h.calls} calls)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.decompress import decompress_all
    from repro.core.intra import IntraProcessCompressor
    from repro.driver import run_compiled
    from repro.mpisim.pmpi import MultiSink, RecordingSink
    from repro.static.instrument import compile_minimpi

    w = WORKLOADS[args.workload]
    w.check_procs(args.nprocs)
    compiled = compile_minimpi(w.source)
    recorder = RecordingSink()
    compressor = IntraProcessCompressor(compiled.cst)
    run_compiled(
        compiled, args.nprocs, defines=w.defines(args.nprocs, args.scale),
        tracer=MultiSink([recorder, compressor]),
    )
    merged = compressor.merged(nranks=args.nprocs, ranks=range(args.nprocs))
    from repro import obs

    registry = obs.active()
    if registry is not None:
        compressor.publish_metrics(registry)
    bad = 0
    total = 0
    replays = decompress_all(merged)
    for rank in range(args.nprocs):
        truth = [e.replay_tuple() for e in recorder.events.get(rank, [])]
        replay = [e.call_tuple() for e in replays.get(rank, [])]
        total += len(truth)
        if replay != truth:
            bad += 1
            print(f"rank {rank}: replay DIVERGES")
    if bad:
        print(f"FAILED: {bad}/{args.nprocs} ranks diverged")
        return 1
    if args.selfcheck and _selfcheck(compiled.cst, merged, args.nprocs):
        return 1
    print(
        f"OK: {args.nprocs} ranks, {total} events — every rank's exact "
        "sequence reproduced from the compressed trace"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the online ingest daemon (docs/INTERNALS.md §13)."""
    import asyncio
    import os

    from repro.server.daemon import CypressTraceServer, ServerConfig

    config = ServerConfig(
        state_dir=args.state_dir,
        out_dir=args.out_dir,
        host=args.host,
        port=args.port,
        high_watermark=args.high_watermark,
        low_watermark=args.low_watermark,
        session_watermark=args.session_watermark,
        checkpoint_interval=args.checkpoint_interval,
        idle_timeout=args.idle_timeout,
        kill_after_batches=args.kill_after_batches,
        kill_after_checkpoints=args.kill_after_checkpoints,
        metrics_json=args.metrics_json,
        memory_budget=args.memory_budget,
    )
    server = CypressTraceServer(config)
    recovered = server.recover()
    if recovered:
        print(f"recovered {recovered} session(s) from {args.state_dir}")

    def _started(srv: CypressTraceServer) -> None:
        print(f"LISTENING {srv.port}", flush=True)
        if args.port_file:
            tmp = args.port_file + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(str(srv.port))
            os.replace(tmp, args.port_file)

    asyncio.run(server.serve(on_started=_started))
    print("drained cleanly")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Capture a workload locally and stream it to a running daemon."""
    from repro.server.client import ClientError, submit_workload

    try:
        summary = submit_workload(
            args.host, args.port,
            job=args.job, workload=args.workload, nprocs=args.nprocs,
            scale=args.scale, batch_events=args.batch_events,
            window=args.window, max_attempts=args.max_attempts,
        )
    except ClientError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(f"{args.job}: {summary['batches']} batches "
          f"({summary['bytes']} bytes) across {args.nprocs} ranks")
    if summary["reconnects"]:
        print(f"  reconnects     : {summary['reconnects']}")
    if summary["throttles_seen"]:
        print(f"  throttles seen : {summary['throttles_seen']}")
    return 0


def cmd_faultsmoke(args: argparse.Namespace) -> int:
    """Seeded fault-injection matrix: every degraded mode must recover.

    Each scenario injects one fault class (stream corruption, file
    truncation, bit flips) into an otherwise healthy run and checks the
    documented recovery: corruption quarantines exactly the victims,
    damaged files fail loudly and salvage to a checksum-valid prefix.
    """
    import json
    import warnings

    if args.server:
        from repro.server.faultsmoke import run_server_faultsmoke

        return run_server_faultsmoke(args)

    from repro.core import TraceFormatError, run_cypress, serialize
    from repro.faults import FaultPlan, bitflip, truncate

    w = WORKLOADS[args.workload]
    w.check_procs(args.nprocs)
    defines = w.defines(args.nprocs, args.scale)
    baseline = run_cypress(w.source, args.nprocs, defines=defines)
    base_bytes = serialize.dumps(baseline.merge())
    scenarios: list[dict] = []
    quarantine_dict: dict | None = None

    def run_scenario(name: str, fn) -> None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                detail = fn() or "recovered"
                ok = True
            except Exception as exc:  # a scenario must never escape
                detail = f"{type(exc).__name__}: {exc}"
                ok = False
        scenarios.append({
            "scenario": name,
            "ok": ok,
            "detail": detail,
            "warnings": [str(c.message) for c in caught],
        })
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    def scenario_corrupt() -> str:
        nonlocal quarantine_dict
        victims = (args.nprocs // 2, args.nprocs - 1)
        plan = FaultPlan(seed=args.seed, corrupt_ranks=victims)
        run = run_cypress(
            w.source, args.nprocs, defines=defines, fault_plan=plan
        )
        quarantine_dict = run.quarantine.to_dict()
        if run.quarantine.ranks() != sorted(set(victims)):
            raise AssertionError(
                f"quarantined {run.quarantine.ranks()}, "
                f"expected {sorted(set(victims))}"
            )
        merged = run.merge()
        expected = args.nprocs - len(set(victims))
        if merged.nranks_merged != expected:
            raise AssertionError(
                f"merged {merged.nranks_merged} ranks, expected {expected}"
            )
        healthy = next(
            r for r in range(args.nprocs) if r not in run.quarantine.rank_set()
        )
        run.replay(healthy)
        run.replay(sorted(set(victims))[0])  # raw-capture fallback
        return (
            f"quarantined exactly {sorted(set(victims))}; "
            f"{expected} healthy ranks merged and replayed"
        )

    def scenario_truncate() -> str:
        rng = FaultPlan(seed=args.seed).rng("truncate")
        # Small payload chunks so a small trace still spans several
        # sections — the truncation then lands mid-payload and salvage
        # recovers a non-trivial vertex prefix.
        chunked = serialize.dumps(baseline.merge(), chunk_bytes=256)
        cut = truncate(chunked, fraction=0.8, rng=rng)
        try:
            serialize.loads(cut)
            raise AssertionError("truncated trace loaded without error")
        except TraceFormatError:
            pass
        merged = serialize.loads(cut, salvage=True)
        info = merged.salvage_info
        return (
            f"strict load failed loudly; salvage recovered "
            f"{info['vertices_with_payload']}/{info['vertices_total']} "
            "vertices"
        )

    def scenario_bitflips() -> str:
        rng = FaultPlan(seed=args.seed).rng("bitflip")
        for trial in range(args.flips):
            bad = bitflip(base_bytes, rng)
            try:
                serialize.loads(bad)
                raise AssertionError(
                    f"bit flip #{trial} loaded without error"
                )
            except (TraceFormatError, ValueError):
                pass
        return f"all {args.flips} single-bit flips failed loudly"

    print(f"fault-injection smoke: {args.workload} on {args.nprocs} ranks "
          f"(seed {args.seed}, baseline {len(base_bytes)} bytes)")
    run_scenario("stream-corruption-quarantine", scenario_corrupt)
    run_scenario("truncation-salvage", scenario_truncate)
    run_scenario("bitflip-loudness", scenario_bitflips)
    passed = all(s["ok"] for s in scenarios)
    report = {
        "workload": args.workload,
        "nprocs": args.nprocs,
        "seed": args.seed,
        "baseline_bytes": len(base_bytes),
        "passed": passed,
        "scenarios": scenarios,
        "quarantine": quarantine_dict,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report -> {args.out}")
    print("PASSED" if passed else "FAILED")
    return 0 if passed else 1


def cmd_check(args: argparse.Namespace) -> int:
    """Trace-integrity suite over one workload or the whole registry.

    Always runs the structural invariant checker (CST, every per-rank
    CTT, the merged CTT) and the wildcard nondeterminism audit.
    ``--differential`` adds the cross-implementation harness,
    ``--fault-matrix`` the seeded corruption matrix.  Wildcard findings are informational; the exit
    code reflects invariant violations and matrix/differential failures.
    """
    import json

    from repro import obs
    from repro.core.errors import TraceFormatError
    from repro.core.intra import compress_streams
    from repro.driver import run_compiled
    from repro.mpisim.pmpi import StreamCaptureSink
    from repro.static.instrument import compile_minimpi
    from repro.verify import (
        audit_wildcards,
        check_cst,
        check_ctt,
        check_merged,
        differential_check,
        publish_verify_metrics,
    )
    from repro.verify.faultmatrix import run_fault_matrix

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    registry = obs.active()
    failed = False
    workload_reports = []
    for name in names:
        w = WORKLOADS[name]
        nprocs = args.nprocs if args.nprocs is not None else _default_procs(w)
        w.check_procs(nprocs)
        compiled = compile_minimpi(w.source)
        capture = StreamCaptureSink()
        run_compiled(
            compiled, nprocs, defines=w.defines(nprocs, args.scale),
            tracer=capture,
        )
        compressor = compress_streams(compiled.cst, capture.streams)
        violations = list(check_cst(compiled.cst))
        for rank in range(nprocs):
            violations += check_ctt(compressor.ctt(rank), nranks=nprocs)
        merged = compressor.merged(nranks=nprocs, ranks=range(nprocs))
        violations += check_merged(merged, nranks=nprocs)
        audit = audit_wildcards(merged)
        findings = audit.findings
        checks = 1 + nprocs + 2  # CST, every CTT, merged tree, audit
        publish_verify_metrics(
            registry, checks=checks, violations=len(violations),
            findings=len(findings),
        )
        entry = {
            "workload": name,
            "nprocs": nprocs,
            "violations": [v.to_dict() for v in violations],
            "wildcard_audit": audit.to_dict(),
        }
        status = "ok  " if not violations else "FAIL"
        extra = ""
        if findings:
            extra = f", {len(findings)} wildcard finding(s)"
        print(f"  {status} {name:10s} n={nprocs}: "
              f"{len(violations)} violation(s){extra}")
        for v in violations[:args.limit]:
            print(f"       [{v.code}] {v.message}", file=sys.stderr)
        for f in findings:
            print(f"       note: {f.format()}")
        if violations:
            failed = True

        if args.differential:
            try:
                diff = differential_check(
                    w.source, nprocs, w.defines(nprocs, args.scale),
                    workload=name,
                )
            except TraceFormatError as exc:
                # Same contract as replay/query: a corrupt container is
                # exit code 3, not a generic failure.
                print(f"error: corrupted trace container during "
                      f"differential check of {name!r}: {exc}",
                      file=sys.stderr)
                return EXIT_CORRUPT_TRACE
            entry["differential"] = diff.to_dict()
            if diff.ok:
                print(f"       differential: ok ({diff.events} events, "
                      f"{len(diff.variants)} variants)")
            else:
                failed = True
                print(f"       differential: {len(diff.divergences)} "
                      "divergence(s)", file=sys.stderr)
                for d in diff.divergences[:args.limit]:
                    print(f"         {d.format()}", file=sys.stderr)

        if args.fault_matrix:
            try:
                matrix = run_fault_matrix(
                    w.source, nprocs, w.defines(nprocs, args.scale),
                    workload=name, seed=args.seed,
                )
            except TraceFormatError as exc:
                print(f"error: corrupted trace container during fault "
                      f"matrix of {name!r}: {exc}", file=sys.stderr)
                return EXIT_CORRUPT_TRACE
            entry["fault_matrix"] = matrix.to_dict()
            missed = [
                e for e in matrix.entries if not e.detected and not e.skipped
            ]
            skipped = [e for e in matrix.entries if e.skipped]
            if matrix.ok:
                ran = len(matrix.entries) - len(skipped)
                note = f" ({len(skipped)} without a site)" if skipped else ""
                print(f"       fault matrix: all {ran} applicable "
                      f"corruption kinds detected{note}")
            else:
                failed = True
                print(f"       fault matrix: {len(missed)} kind(s) MISSED",
                      file=sys.stderr)
                for e in missed:
                    print(f"         {e.kind}: {e.description}",
                          file=sys.stderr)
        workload_reports.append(entry)

    report = {
        "seed": args.seed,
        "ok": not failed,
        "workloads": workload_reports,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report -> {args.out}")
    print("PASSED" if not failed else "FAILED")
    return 0 if not failed else 1


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.analysis.diff import diff_traces

    result = diff_traces(
        _load_trace(args.a, salvage=args.salvage),
        _load_trace(args.b, salvage=args.salvage),
    )
    print(result.format())
    return 0 if result.identical else 1


def cmd_query(args: argparse.Namespace) -> int:
    """Run one decompression-free query over a stored trace; optionally
    cross-check it against the replay oracle (`--oracle`) and/or dump the
    result as JSON (`-o`)."""
    import json

    from repro import query

    merged = _load_trace(args.trace, salvage=args.salvage)

    def _require(flag: str, value) -> None:
        if value is None:
            raise SystemExit(f"repro query {args.query}: {flag} is required")

    if args.query == "traffic":
        result = query.traffic(merged, group_by=args.group_by,
                               nprocs=args.nprocs)
        oracle = (query.traffic_via_replay(merged, group_by=args.group_by,
                                           nprocs=args.nprocs)
                  if args.oracle else None)
    elif args.query == "ordering":
        _require("--gid-a", args.gid_a)
        _require("--gid-b", args.gid_b)
        _require("--rank", args.rank)
        result = query.ordering(merged, args.gid_a, args.gid_b, args.rank)
        oracle = (query.ordering_via_replay(merged, args.gid_a, args.gid_b,
                                            args.rank)
                  if args.oracle else None)
    elif args.query == "rank-profile":
        _require("--rank", args.rank)
        result = query.rank_profile(merged, args.rank)
        oracle = (query.rank_profile_via_replay(merged, args.rank)
                  if args.oracle else None)
    else:  # critical-leaves
        result = query.critical_leaves(merged, k=args.top)
        oracle = (query.critical_leaves_via_replay(merged, k=args.top)
                  if args.oracle else None)

    if args.oracle:
        errors = query.agreement_errors(result, oracle, args.query)
        if errors:
            print(f"ORACLE MISMATCH ({len(errors)} differences):",
                  file=sys.stderr)
            for e in errors[:20]:
                print(f"  {e}", file=sys.stderr)
            return 1
        print(f"oracle check: engine == replay ({args.query})",
              file=sys.stderr)

    if args.output:
        payload = json.dumps(query.to_jsonable(result), indent=2,
                             sort_keys=True)
        if args.output == "-":
            print(payload)
        else:
            with open(args.output, "w") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.output}")
        return 0

    if args.query == "traffic":
        print(f"{'key':>24s} {'messages':>10s} {'bytes':>14s}")
        for key in sorted(result, key=repr):
            cell = result[key]
            shown = "->".join(map(str, key)) if isinstance(key, tuple) else key
            print(f"{shown!s:>24s} {cell.messages:10d} {cell.nbytes:14d}")
    elif args.query in ("ordering", "rank-profile"):
        print(result.format())
    else:
        for c in result:
            print(f"  gid={c.gid:4d} {c.op:<16s} {c.total_us / 1e3:10.2f} ms "
                  f"({c.calls} calls)  {c.path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="trace a workload with CYPRESS")
    _add_workload_args(p)
    _add_metrics_args(p)
    p.add_argument("-o", "--output", default="trace.cyp")
    p.add_argument("--gzip", action="store_true")
    p.add_argument("--memory-budget", type=_parse_bytes, default=None,
                   metavar="BYTES",
                   help="bounded-memory streaming compression: keep the "
                        "live compressor under this many bytes by folding "
                        "finished ranks into the merge and spilling cold "
                        "ranks to disk (suffixes K/M/G); the output is "
                        "byte-identical to the unbudgeted pipeline")
    p.add_argument("--selfcheck", action="store_true",
                   help="run the structural invariant checker on the "
                        "CST and merged trace before reporting success")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="compare all compression methods")
    _add_workload_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("replay", help="decompress a trace file")
    p.add_argument("trace")
    p.add_argument("-r", "--rank", type=int, default=0)
    p.add_argument("--limit", type=int, default=30)
    _add_salvage_arg(p)
    _add_metrics_args(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("predict", help="SIM-MPI prediction from a trace")
    p.add_argument("trace")
    _add_salvage_arg(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cst", help="print a MiniMPI program's CST")
    p.add_argument("file")
    p.set_defaults(func=cmd_cst)

    p = sub.add_parser("patterns", help="communication-matrix heatmap")
    _add_workload_args(p)
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("info", help="per-op summary of a trace file")
    p.add_argument("trace")
    _add_salvage_arg(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("hotspots", help="communication-time hotspots by structure")
    p.add_argument("trace")
    p.add_argument("--top", type=int, default=10)
    _add_salvage_arg(p)
    p.set_defaults(func=cmd_hotspots)

    p = sub.add_parser("verify", help="end-to-end sequence-preservation check")
    _add_workload_args(p)
    _add_metrics_args(p)
    p.add_argument("--selfcheck", action="store_true",
                   help="also run the structural invariant checker on the "
                        "CST and merged trace")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "faultsmoke",
        help="seeded fault-injection matrix: verify every degraded mode",
    )
    p.add_argument("workload", nargs="?", default="cg",
                   choices=sorted(WORKLOADS))
    p.add_argument("-n", "--nprocs", type=int, default=8)
    p.add_argument("--scale", type=float, default=0.5,
                   help="iteration-count scale factor (default: 0.5)")
    p.add_argument("--seed", type=int, default=20260807,
                   help="FaultPlan seed (default: 20260807)")
    p.add_argument("--flips", type=int, default=64,
                   help="random single-bit flips to test (default: 64)")
    p.add_argument("--server", action="store_true",
                   help="run the online-ingest matrix instead: seeded "
                        "daemon kills, client disconnects, torn frames, "
                        "stalled ranks, drain — each asserting the "
                        "recovered trace is byte-identical to the batch "
                        "pipeline")
    p.add_argument("--soak", action="store_true",
                   help="with --server: endurance mode (concurrent client "
                        "waves, seeded kills/drops) for the CI soak job")
    p.add_argument("--duration", type=float, default=60.0,
                   help="soak duration in seconds (default: 60)")
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent soak clients per wave (default: 8)")
    p.add_argument("-o", "--out", default=None, metavar="PATH",
                   help="write the JSON report (incl. the QuarantineReport) "
                        "to PATH")
    p.set_defaults(func=cmd_faultsmoke)

    p = sub.add_parser(
        "serve",
        help="run the online ingest daemon (many clients, one live "
             "compressor per job, crash-safe checkpoints)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = pick an ephemeral port; the bound "
                        "port is printed as 'LISTENING <port>')")
    p.add_argument("--state-dir", default="server-state",
                   help="checkpoint directory (batch logs + session meta); "
                        "recovery scans it on startup (default: "
                        "server-state)")
    p.add_argument("--out-dir", default="server-out",
                   help="where finalized merged traces land as <job>.cyp "
                        "(default: server-out)")
    p.add_argument("--high-watermark", type=int, default=8 << 20,
                   help="global buffered-bytes level that throttles "
                        "clients (default: 8 MiB)")
    p.add_argument("--low-watermark", type=int, default=2 << 20,
                   help="buffered-bytes level that resumes reading "
                        "(default: 2 MiB)")
    p.add_argument("--session-watermark", type=int, default=2 << 20,
                   help="per-session buffered-bytes level that forces an "
                        "inline spill (default: 2 MiB)")
    p.add_argument("--checkpoint-interval", type=float, default=0.25,
                   help="seconds between incremental checkpoints of dirty "
                        "sessions (default: 0.25)")
    p.add_argument("--idle-timeout", type=float, default=30.0,
                   help="seconds of rank silence before quarantine "
                        "(default: 30)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="atomically write the bound port to PATH (test "
                        "harness hand-off)")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="write the server.* metrics snapshot to PATH at "
                        "drain")
    p.add_argument("--kill-after-batches", type=int, default=None,
                   help="fault injection: hard-exit after the Nth ingested "
                        "batch (faultsmoke --server)")
    p.add_argument("--kill-after-checkpoints", type=int, default=None,
                   help="fault injection: hard-exit after the Nth "
                        "checkpoint (faultsmoke --server)")
    p.add_argument("--memory-budget", type=_parse_bytes, default=None,
                   metavar="BYTES",
                   help="per-job compressor memory budget (suffixes "
                        "K/M/G): finalized ranks fold into the merge "
                        "incrementally, cold ranks spill under "
                        "<state-dir>/spill/, and the ingest watermark "
                        "shrinks under unevictable pressure")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="capture a workload and stream it to a running ingest daemon "
             "(retry/reconnect/resume, exactly-once)",
    )
    _add_workload_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--job", required=True,
                   help="job id (also the output trace name, <job>.cyp)")
    p.add_argument("--batch-events", type=int, default=512,
                   help="callback tuples per batch frame (default: 512)")
    p.add_argument("--window", type=int, default=32,
                   help="max unacked batches in flight (default: 32)")
    p.add_argument("--max-attempts", type=int, default=30,
                   help="connection attempts before giving up "
                        "(default: 30)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "check",
        help="trace-integrity suite: invariants, wildcard audit, and "
             "optional differential / fault-matrix passes",
    )
    p.add_argument("workload", nargs="?", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("-n", "--nprocs", type=int, default=None,
                   help="rank count (default: smallest valid count >= 4 "
                        "per workload)")
    p.add_argument("--scale", type=float, default=0.3,
                   help="iteration-count scale factor (default: 0.3)")
    p.add_argument("--differential", action="store_true",
                   help="also cross-check fastpath/reference/inline/"
                        "packed/budgeted compression against ground "
                        "truth and each other")
    p.add_argument("--fault-matrix", action="store_true",
                   help="also run the seeded corruption matrix: every "
                        "damage kind must be detected")
    p.add_argument("--seed", type=int, default=20260807,
                   help="fault-matrix seed (default: 20260807)")
    p.add_argument("--limit", type=int, default=10,
                   help="max violations/divergences printed per workload")
    p.add_argument("-o", "--out", default=None, metavar="PATH",
                   help="write the JSON report to PATH")
    _add_metrics_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("diff", help="compare two trace files")
    p.add_argument("a")
    p.add_argument("b")
    _add_salvage_arg(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "query",
        help="decompression-free queries over a stored trace",
        description="Answer traffic/ordering/profile/hotspot questions "
                    "straight from the compressed structure — no replay. "
                    "--oracle cross-checks the answer against the replay "
                    "twin (exit 1 on mismatch).",
    )
    p.add_argument("trace")
    p.add_argument("query", choices=("traffic", "ordering", "rank-profile",
                                     "critical-leaves"))
    p.add_argument("--group-by", choices=("vertex", "op", "rank_pair"),
                   default="op", help="traffic aggregation key")
    p.add_argument("--gid-a", type=int, default=None,
                   help="first call-site GID (ordering)")
    p.add_argument("--gid-b", type=int, default=None,
                   help="second call-site GID (ordering)")
    p.add_argument("--rank", type=int, default=None,
                   help="rank to query (ordering, rank-profile)")
    p.add_argument("--top", type=int, default=10,
                   help="number of leaves (critical-leaves)")
    p.add_argument("--nprocs", type=int, default=None,
                   help="rank-space size for peer validation "
                        "(default: inferred from the trace)")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the replay oracle")
    _add_salvage_arg(p)
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="write the result as JSON ('-' for stdout)")
    _add_metrics_args(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("export", help="flatten a trace file")
    p.add_argument("trace")
    p.add_argument("-f", "--format", choices=("text", "csv"), default="text")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--ranks", default="", help="comma-separated rank filter")
    _add_salvage_arg(p)
    p.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out or getattr(args, "metrics", False):
        from repro import obs

        registry = obs.enable()
        try:
            rc = args.func(args)
        finally:
            obs.disable()
        if metrics_out:
            obs.write_json(registry, metrics_out)
            print(f"metrics -> {metrics_out}")
        if getattr(args, "metrics", False):
            print(obs.format_text(registry))
        return rc
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
