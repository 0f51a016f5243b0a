"""The end-to-end benchmark's one command.

Two ways in (README.md has the details):

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, one pass; the last line of standard
  output is the result object the benchmark contract asks for.
* ``PYTHONPATH=src python -m benchmarks.e2e.run [--seed N] [--smoke]
  [--check-stability]`` — all five workloads, the untraced pass then the
  traced pass, each in its own subprocess; prints every metric by name
  with its unit, the layer self-time tables and the correctness count,
  writes ``out/report.json`` and ``out/spans.jsonl``, exits non-zero when
  an operation failed (or a stability check disagreed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import metrics as catalogue  # noqa: E402
from benchmarks.e2e import spans  # noqa: E402
from benchmarks.e2e.harness import quartiles  # noqa: E402
from benchmarks.e2e.workloads import SPECS  # noqa: E402

OUT = HERE / "out"
SPANS_PATH = OUT / "spans.jsonl"
REPORT_PATH = OUT / "report.json"


def detail_path(workload: str, trace: int) -> Path:
    return OUT / f"detail-{workload}-trace{trace}.json"


def metric_line(name: str, m: dict) -> str:
    return (f"{name:34s} {m['value']:16.6f} {m['unit']:13s} "
            f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")


# ---------------------------------------------------------------------------
# One workload, one pass.


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended,
    on every way out of the run.  The daemons are waited for where they
    are spawned (``serve.py``); what is left is the warm ``workers=2``
    pool of the traced batch pass and, behind its shared-memory rings,
    ``multiprocessing``'s resource tracker — a helper process that
    otherwise ends only *after* this one does, unwaited."""
    from multiprocessing import resource_tracker

    intra = sys.modules.get("repro.core.intra")
    if intra is not None:
        # EOF to the workers, join them, unlink the rings
        intra.close_shared_sessions()
    # The tracker ends when the last copy of its pipe is closed; the pool
    # workers held the others.  _stop() closes ours and waits for it.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    # Whatever an error path left behind (there should be nothing).
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # ended and was reaped in the meantime


def _child_pids() -> list[int]:
    """Direct children of this process still in the process table."""
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid ...; comm may hold spaces
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue  # ended while we looked
        if ppid == me:
            found.append(int(entry))
    return found


def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit("no src/repro beside the benchmark: nothing to run")
    spec = SPECS[args.workload]
    if args.smoke:
        spec = spec.smoke()
    traced = args.trace == 1
    OUT.mkdir(exist_ok=True)
    # Everything the run or the program under test writes — containers,
    # spill files, daemon state — stays inside the checkout.
    tmp = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT)
    tempfile.tempdir = os.environ["TMPDIR"] = tmp
    loadavg = os.getloadavg()[0]
    try:
        started = time.perf_counter()
        from benchmarks.e2e import batch, serve  # imports the system
        import_s = time.perf_counter() - started

        recorder = spans.Recorder(
            args.workload, f"{args.workload}-s{args.seed}-p{os.getpid()}",
            enabled=traced,
        )
        wanted = catalogue.contract()[
            "per_layer" if traced else "end_to_end"
        ]
        module = serve if spec.kind == "serve" else batch
        outcome = module.run(
            spec, args.seed, args.seconds, traced, args.smoke,
            recorder, tmp, import_s, [m["name"] for m in wanted],
        )
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)

    values = dict(outcome.values)
    if traced:
        values["bench.loadavg_start"] = loadavg
        recorder.write(str(SPANS_PATH))
    known = {m["name"] for m in wanted}
    unknown = sorted((set(values) | set(outcome.series)) - known)
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "loadavg_start": loadavg,
        "attempted": outcome.ops.attempted, "failed": outcome.ops.failed,
        "failures": outcome.ops.failures,
        "metrics": {},
        "shares": spans.path_shares(recorder.spans) if traced else {},
    }
    for m in wanted:
        name, series = m["name"], outcome.series.get(m["name"], [])
        if name in values:
            value = float(values[name])
        elif series:
            value = statistics.median(series)
        else:
            value = 0.0  # a layer this workload never enters
        values[name] = value
        q1, q3 = quartiles(series) if series else (value, value)
        detail["metrics"][name] = {
            "value": value, "unit": m["unit"],
            "q1": q1, "q3": q3, "n": len(series) or 1,
        }
        print(metric_line(name, detail["metrics"][name]))
    for failure in outcome.ops.failures:
        print(f"FAILED: {failure}")
    detail_path(args.workload, args.trace).write_text(json.dumps(detail))
    print(json.dumps({
        "correct": outcome.ops.failed == 0,
        "attempted": outcome.ops.attempted,
        "failed": outcome.ops.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


# ---------------------------------------------------------------------------
# The whole set.


def _git(*argv: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *argv], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None  # not a git checkout (the driver's is not)


def environment(seed: int) -> dict:
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "uncommitted_changes": bool(_git("status", "--porcelain")),
        "seed": seed, "nproc": nproc,
        "python": platform.python_version(),
        "loadavg_start": load,
        # A run that starts on a busy machine is flagged, not trusted.
        "loaded": load > nproc,
    }


def run_set(seed: int, seconds: float, smoke: bool) -> dict:
    """Every workload, untraced then traced, one subprocess each."""
    OUT.mkdir(exist_ok=True)
    SPANS_PATH.unlink(missing_ok=True)
    report = {"environment": environment(seed), "workloads": {}}
    for workload in SPECS:
        entry = report["workloads"][workload] = {}
        for trace in (0, 1):
            argv = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            if smoke:
                argv.append("--smoke")
            done = subprocess.run(argv, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                raise SystemExit(
                    f"{workload} --trace {trace} exited {done.returncode}"
                )
            entry[f"trace{trace}"] = json.loads(
                detail_path(workload, trace).read_text()
            )
    return report


def print_report(report: dict) -> int:
    env = report["environment"]
    print(f"commit {env['commit']}"
          + ("+uncommitted" if env["uncommitted_changes"] else "")
          + f"  seed {env['seed']}  nproc {env['nproc']}"
          + f"  python {env['python']}  loadavg {env['loadavg_start']:.2f}"
          + ("  ** LOADED: load average above nproc **" if env["loaded"]
             else ""))
    attempted = failed = 0
    for workload, entry in report["workloads"].items():
        for trace, title in ((0, "end to end, untraced pass"),
                             (1, "per layer, traced pass")):
            detail = entry[f"trace{trace}"]
            print(f"\n[{workload}] {title}")
            for name, m in detail["metrics"].items():
                print("  " + metric_line(name, m))
            attempted += detail["attempted"]
            failed += detail["failed"]
            for failure in detail["failures"]:
                print(f"  FAILED: {failure}")
        print()
        print("\n".join(
            spans.format_shares(workload, entry["trace1"]["shares"])
        ))
    share = failed / attempted if attempted else 0.0
    print(f"\nops_attempted {attempted} count   ops_failed {failed} count   "
          f"failed_share {share:.6f} ratio")
    return failed


def check_stability(first: dict, second: dict) -> int:
    """Compare two sets of one commit: each end-to-end metric of each
    workload (and the serve-only metrics the contract cannot carry) must
    not be worse in either set than in the other by more than its bound."""
    c = catalogue.contract()
    better = {m["name"]: m["better"] for m in c["per_layer"]}
    checks = [
        (m["name"], m["bound"], m["better"], "trace0", list(SPECS))
        for m in c["end_to_end"]
    ] + [
        (name, bound, better[name], "trace1", ["serve_mixed"])
        for name, bound in catalogue.SERVE_ONLY.items()
    ]
    unresolved = 0
    print("\nstability: second set against the first, per (metric, workload)")
    for name, bound, direction, which, workloads in checks:
        for workload in workloads:
            x, y = (
                s["workloads"][workload][which]["metrics"][name]["value"]
                for s in (first, second)
            )
            low, high = min(x, y), max(x, y)
            # worsening of the worse set, as a share of the better one
            base = low if direction == "lower" else high
            gap = (high - low) / base if base else 0.0
            verdict = "agree" if gap <= bound else "unresolved"
            unresolved += verdict == "unresolved"
            print(f"  {verdict:10s} {workload:13s} {name:28s} "
                  f"{x:14.6g} {y:14.6g} gap {gap:6.2%} bound {bound:.0%}")
    return unresolved


def run_all(args: argparse.Namespace) -> int:
    seconds = args.seconds if args.seconds is not None else (
        0.5 if args.smoke else catalogue.contract()["run_seconds"]
    )
    report = run_set(args.seed, seconds, args.smoke)
    failed = print_report(report)
    unresolved = 0
    if args.check_stability:
        second = run_set(args.seed, seconds, args.smoke)
        failed += print_report(second)
        unresolved = check_stability(report, second)
        report["second_set"] = second["workloads"]
    REPORT_PATH.write_text(json.dumps(report, indent=1))
    print(f"\nwrote {REPORT_PATH.relative_to(ROOT)} and "
          f"{SPANS_PATH.relative_to(ROOT)}")
    return 1 if failed or unresolved else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scale / 10, 64 ranks at most, short rounds")
    parser.add_argument("--check-stability", action="store_true",
                        help="run the set twice and compare the two")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = catalogue.contract()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
