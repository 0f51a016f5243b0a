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
* ``hotspots`` — which loops/call sites dominate communication time
* ``serve`` / ``submit`` — the online ingest daemon and its client
* ``check``    — integrity check of a trace file (docs/INTERNALS.md §8):
  the structural invariants of the merged tree and the wildcard
  nondeterminism audit, without decompressing; exit 0 when clean, 1 on
  a violation, 3 on a damaged file
* ``query``    — decompression-free queries over a stored trace
"""

from __future__ import annotations

import argparse
import sys

from repro.workloads import WORKLOADS

#: Exit code for a corrupted/unreadable trace file (distinct from the
#: generic failure 1 and argparse's 2) so scripts can tell "the data is
#: damaged — retry with --salvage" apart from every other failure.
EXIT_CORRUPT_TRACE = 3


def _load_trace(path: str, salvage: bool | None = False):
    """Load a trace for replay/query/info; a damaged file exits with
    :data:`EXIT_CORRUPT_TRACE` and, unless ``salvage`` is ``None`` (a
    command without the flag), a one-line ``--salvage`` hint; a
    salvaged (incomplete) one warns how much was recovered."""
    from repro.core import serialize
    from repro.core.errors import TraceFormatError

    try:
        merged = serialize.load(path, salvage=bool(salvage))
    except TraceFormatError as exc:
        print(f"error: corrupted trace {path!r}: {exc}", file=sys.stderr)
        if salvage is False:
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
    (binary units); a negative size is refused."""
    s = value.strip().upper()
    mult = 1
    if s and s[-1] in "KMG":
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[s[-1]]
        s = s[:-1]
    try:
        n = int(s) * mult
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid byte size {value!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"negative byte size {value!r}")
    return n


def _trace_file(value: str) -> str:
    """A trace path argument: a missing file is a usage error."""
    import os

    if not os.path.isfile(value):
        raise argparse.ArgumentTypeError(f"no such trace file {value!r}")
    return value


def _count(value: str) -> int:
    """A non-negative integer option (``--top``, ``--limit``)."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count {value!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"negative count {value!r}")
    return n


def _rank_list(value: str) -> list[int]:
    """A comma-separated rank list (``--ranks 0,3``)."""
    try:
        return [int(r) for r in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rank list {value!r}")


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("-n", "--nprocs", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0,
                   help="iteration-count scale factor (1.0 = repo default)")


def _add_salvage_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--salvage", action="store_true",
                   help="recover the longest checksum-valid prefix of a "
                        "damaged trace instead of failing")


#: Violations ``check`` prints; the rest are only counted.
CHECK_LIMIT = 10


def _check_trace(path: str, cst=None, out: str | None = None) -> bool:
    """Load the container at ``path`` and check what it holds: the
    structural invariants of the merged tree (and of ``cst``, the tree
    it was compressed against, when given) and the wildcard audit.
    Prints the first :data:`CHECK_LIMIT` violations, every wildcard
    finding and a summary line, publishes ``verify.*``, writes the JSON
    report to ``out``, and returns whether the trace is clean.  A
    damaged file exits with :data:`EXIT_CORRUPT_TRACE`."""
    import json

    from repro import obs
    from repro.verify import (
        audit_wildcards, check_cst, check_merged, publish_verify_metrics,
    )

    merged = _load_trace(path, salvage=None)
    violations = check_merged(merged, nranks=merged.nranks_merged)
    if cst is not None:
        violations = check_cst(cst) + violations
    audit = audit_wildcards(merged)
    findings = audit.findings
    publish_verify_metrics(
        obs.active(), checks=2 + (cst is not None),
        violations=len(violations), findings=len(findings),
    )
    for v in violations[:CHECK_LIMIT]:
        print(f"  [{v.code}] {v.message}", file=sys.stderr)
    for f in findings:
        print(f"  note: {f.format()}")
    extra = f", {len(findings)} wildcard finding(s)" if findings else ""
    print(f"{path}: {merged.nranks_merged} ranks, "
          f"{len(violations)} violation(s){extra}")
    if out:
        report = {
            "ok": not violations, "trace": path,
            "nranks": merged.nranks_merged,
            "violations": [v.to_dict() for v in violations],
            "wildcard_audit": audit.to_dict(),
        }
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report -> {out}")
    return not violations


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
    if args.selfcheck:
        if not _check_trace(args.output, cst=run.compiled.cst):
            print("SELFCHECK FAILED", file=sys.stderr)
            return 1
        print("selfcheck: trace invariants OK")
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


def _refuse_ranks(merged, ranks) -> bool:
    """Print one ``error:`` line for the first of ``ranks`` the trace
    does not hold (:func:`repro.query.check_rank`); True if there was
    one — the caller exits 2, the usage code, as ``repro query`` does."""
    from repro import query

    try:
        for rank in ranks:
            query.check_rank(merged, rank)
    except query.QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return True
    return False


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.core import decompress_merged_rank
    from repro.core.export import format_peer

    merged = _load_trace(args.trace, salvage=args.salvage)
    if _refuse_ranks(merged, [args.rank]):
        return 2
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
    from repro.analysis import ascii_heatmap, communication_matrix, message_sizes
    from repro.core import run_cypress

    w = WORKLOADS[args.workload]
    run = run_cypress(
        w.source, args.nprocs, defines=w.defines(args.nprocs, args.scale)
    )
    matrix = communication_matrix(run.merge(), args.nprocs)
    print(f"{args.workload} communication matrix ({args.nprocs} ranks, "
          f"{int(matrix.sum()) // 1024} KB total):")
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
    ranks = args.ranks
    if ranks is not None and _refuse_ranks(merged, ranks):
        return 2
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
    from repro.analysis.hotspots import hotspots
    from repro.query import critical_leaves

    merged = _load_trace(args.trace, salvage=args.salvage)
    tree = hotspots(merged)
    print(tree.format())
    print("\ntop call sites:")
    for c in critical_leaves(merged, args.top):
        print(f"  gid={c.gid:4d} {c.op:<16s} {c.total_us / 1e3:10.2f} ms "
              f"({c.calls} calls)")
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
        checkpoint_interval=args.checkpoint_interval,
        idle_timeout=args.idle_timeout,
        kill_after_batches=args.kill_after_batches,
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
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Integrity check of one trace file (:func:`_check_trace`).
    Wildcard findings are informational; the exit code is 1 on any
    invariant violation and :data:`EXIT_CORRUPT_TRACE` on a file that
    does not load."""
    clean = _check_trace(args.trace, out=args.out)
    print("PASSED" if clean else "FAILED")
    return 0 if clean else 1


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
    dump the result as JSON (`-o`)."""
    import json

    from repro import query

    merged = _load_trace(args.trace, salvage=args.salvage)

    def _require(flag: str, value) -> None:
        if value is None:
            raise SystemExit(f"repro query {args.query}: {flag} is required")

    try:
        if args.query == "traffic":
            result = query.traffic(merged, group_by=args.group_by,
                                   nprocs=args.nprocs)
        elif args.query == "ordering":
            _require("--gid-a", args.gid_a)
            _require("--gid-b", args.gid_b)
            _require("--rank", args.rank)
            result = query.ordering(merged, args.gid_a, args.gid_b, args.rank)
        elif args.query == "rank-profile":
            _require("--rank", args.rank)
            result = query.rank_profile(merged, args.rank)
        else:  # critical-leaves
            result = query.critical_leaves(merged, k=args.top)
    except query.QueryError as exc:
        # A question the trace cannot answer (a rank or gid it does not
        # have): the usage exit code.
        print(f"repro query {args.query}: {exc}", file=sys.stderr)
        return 2

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
    p.add_argument("trace", type=_trace_file)
    p.add_argument("-r", "--rank", type=int, default=0)
    p.add_argument("--limit", type=_count, default=30)
    _add_salvage_arg(p)
    _add_metrics_args(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("predict", help="SIM-MPI prediction from a trace")
    p.add_argument("trace", type=_trace_file)
    _add_salvage_arg(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cst", help="print a MiniMPI program's CST")
    p.add_argument("file")
    p.set_defaults(func=cmd_cst)

    p = sub.add_parser("patterns", help="communication-matrix heatmap")
    _add_workload_args(p)
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("info", help="per-op summary of a trace file")
    p.add_argument("trace", type=_trace_file)
    _add_salvage_arg(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("hotspots", help="communication-time hotspots by structure")
    p.add_argument("trace", type=_trace_file)
    p.add_argument("--top", type=_count, default=10)
    _add_salvage_arg(p)
    p.set_defaults(func=cmd_hotspots)

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
                   help="session directory (one log per session: "
                        "identity, batches, EOS/quarantine state); "
                        "recovery scans it on startup (default: "
                        "server-state)")
    p.add_argument("--out-dir", default="server-out",
                   help="where finalized merged traces land as <job>.cyp "
                        "(default: server-out)")
    p.add_argument("--checkpoint-interval", type=float, default=0.25,
                   help="seconds between checkpoints (fsync every "
                        "session log appended to since its last fsync) "
                        "(default: 0.25)")
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
                        "batch (the server fault matrix)")
    p.add_argument("--memory-budget", type=_parse_bytes, default=None,
                   metavar="BYTES",
                   help="per-job compressor memory budget (suffixes "
                        "K/M/G): finalized ranks fold into the merge "
                        "incrementally and cold ranks spill under "
                        "<state-dir>/spill/")
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
                   help="opcode tuples per batch frame (default: 512)")
    p.add_argument("--window", type=int, default=32,
                   help="max unacked batches in flight (default: 32)")
    p.add_argument("--max-attempts", type=int, default=30,
                   help="connection attempts before giving up "
                        "(default: 30)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "check",
        help="integrity check of a trace file: structural invariants and "
             "the wildcard audit (exit 1 on a violation, 3 on a damaged "
             "file)",
    )
    p.add_argument("trace", type=_trace_file)
    p.add_argument("-o", "--out", default=None, metavar="PATH",
                   help="write the JSON report to PATH")
    _add_metrics_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("diff", help="compare two trace files")
    p.add_argument("a", type=_trace_file)
    p.add_argument("b", type=_trace_file)
    _add_salvage_arg(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "query",
        help="decompression-free queries over a stored trace",
        description="Answer traffic/ordering/profile/hotspot questions "
                    "straight from the compressed structure — no replay.",
    )
    p.add_argument("trace", type=_trace_file)
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
    p.add_argument("--top", type=_count, default=10,
                   help="number of leaves (critical-leaves)")
    p.add_argument("--nprocs", type=int, default=None,
                   help="rank-space size for peer validation "
                        "(default: inferred from the trace)")
    _add_salvage_arg(p)
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="write the result as JSON ('-' for stdout)")
    _add_metrics_args(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("export", help="flatten a trace file")
    p.add_argument("trace", type=_trace_file)
    p.add_argument("-f", "--format", choices=("text", "csv"), default="text")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--ranks", type=_rank_list, default=None,
                   help="comma-separated rank filter")
    _add_salvage_arg(p)
    p.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    workload = WORKLOADS.get(getattr(args, "workload", None))
    if workload is not None:
        try:
            workload.check_procs(args.nprocs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
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
