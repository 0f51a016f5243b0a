"""The server fault matrix: seeded faults against real daemons.

Every scenario drives real daemon subprocesses (``python -m repro
serve``, through :class:`~repro.server.faultsmoke.DaemonProc`) through a
seeded fault — SIGKILL at a chosen batch count, client disconnects,
torn frames, a rank stalled past the idle timeout, SIGTERM drain
mid-ingest, a kill whose logs must hold every batch it ingested — and
then asserts the recovered, finalized merged trace is
**byte-identical** to what the offline batch pipeline
(:func:`repro.core.run_cypress`) produces for the same workload.
``--soak`` runs the CI endurance mode: N seconds of concurrent client
waves with seeded daemon kills and client drops, verifying every
completed job and emitting a metrics JSON artifact.
Run it from the repository root::

    PYTHONPATH=src python -m tests.faults.smoke --seed 20260809 -o smoke.json
    PYTHONPATH=src python -m tests.faults.smoke --soak --duration 60 \
        --clients 8 --seed 20260809 -o soak.json

The batch pipeline's fault matrix (stream corruption, container
truncation and bit flips) is :mod:`tests.faults.matrix`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time

from repro.core import run_cypress, serialize
from repro.server.client import capture_workload, split_batches
from repro.server.faultsmoke import DaemonProc
from repro.server.session import SessionStore
from repro.workloads import get as get_workload

from .client import submit
from .plan import FaultPlan

#: The byte-identity matrix: (workload, nprocs, scale).
MATRIX = (
    ("fig11", 8, 0.3),
    ("cg", 8, 0.3),
    ("farm", 7, 0.3),
)

_BATCH_EVENTS = 48  # small batches -> many seqs -> meaningful kill points


_ORACLES: dict[tuple, bytes] = {}


def oracle_bytes(workload: str, nprocs: int, scale: float) -> bytes:
    """Batch-pipeline ground truth for one job (cached per identity)."""
    key = (workload, nprocs, scale)
    if key not in _ORACLES:
        w = get_workload(workload)
        run = run_cypress(
            w.source, nprocs, defines=w.defines(nprocs, scale)
        )
        _ORACLES[key] = serialize.dumps(run.merge())
    return _ORACLES[key]


def _dirs(root: str, name: str) -> tuple[str, str]:
    state = os.path.join(root, name, "state")
    out = os.path.join(root, name, "out")
    os.makedirs(state, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    return state, out


def _wait_file(path: str, timeout: float = 60.0) -> bytes:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return open(path, "rb").read()
        time.sleep(0.05)
    raise AssertionError(f"finalized trace {path} never appeared")


def _check_identity(out_dir: str, job: str, workload: str, nprocs: int,
                    scale: float, timeout: float = 60.0) -> str:
    got = _wait_file(os.path.join(out_dir, f"{job}.cyp"), timeout)
    want = oracle_bytes(workload, nprocs, scale)
    if got != want:
        raise AssertionError(
            f"{job}: server trace ({len(got)}B) differs from batch "
            f"pipeline ({len(want)}B)"
        )
    return f"byte-identical to batch pipeline ({len(want)} bytes)"


def _submit_async(port: int, **kwargs) -> tuple[threading.Thread, dict]:
    """Run :func:`submit` on a thread; the dict fills in at the end."""
    result: dict = {}

    def _go() -> None:
        try:
            result.update(submit(port, **kwargs))
        except BaseException as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"

    t = threading.Thread(target=_go, daemon=True)
    t.start()
    return t, result


def _finish(thread: threading.Thread, result: dict,
            timeout: float = 240.0) -> dict:
    thread.join(timeout)
    if thread.is_alive():
        raise AssertionError("client did not finish in time")
    if "error" in result:
        raise AssertionError(f"client failed: {result['error']}")
    return result


# ---------------------------------------------------------------------------
# Scenarios.  Each returns a human-readable detail string or raises.


def submission_batches(workload: str, nprocs: int, scale: float) -> int:
    """How many batches :func:`submit` sends for this submission."""
    return sum(
        len(split_batches(stream, _BATCH_EVENTS))
        for stream in capture_workload(workload, nprocs, scale).values()
    )


def kill_points(seed: int, workload: str, kills: int, batches: int
                ) -> list[int]:
    """Seeded ``--kill-after-batches`` values for ``kills`` successive
    daemons serving one submission of ``batches`` batches.  Each point
    is below the number of batches its daemon is still owed (a killed
    daemon left at most ``point`` of them in its logs: the batch it dies
    on was appended first), so every kill fires and leaves at least one
    batch for the daemon after it."""
    rng = FaultPlan(seed=seed).rng("server-kill", workload, kills)
    points = []
    for _ in range(kills):
        hi = min(13, batches)
        points.append(rng.randrange(min(4, hi - 1), hi))
        batches -= points[-1]
    return points


def scenario_kill_recover(root: str, seed: int, workload: str, nprocs: int,
                          scale: float, kills: int = 1) -> str:
    """SIGKILL the daemon at seeded ingest points mid-stream; restarted
    daemons recover from checkpoints and clients resume exactly-once."""
    name = f"kill-{workload}-{kills}"
    state, out = _dirs(root, name)
    points = kill_points(
        seed, workload, kills, submission_batches(workload, nprocs, scale)
    )
    d = DaemonProc(state, out, kill_after_batches=points[0])
    try:
        port = d.start()
        thread, result = _submit_async(
            port, job=name, workload=workload, nprocs=nprocs, scale=scale,
            batch_events=_BATCH_EVENTS, max_attempts=60,
        )
        rc = d.wait_exit()
        if rc != 137:
            raise AssertionError(
                f"daemon exit rc={rc}, expected injected 137"
            )
        for round_no, next_kill in enumerate(points[1:], 1):
            d = DaemonProc(
                state, out, port=port, kill_after_batches=next_kill
            )
            d.start()
            rc = d.wait_exit()
            if rc != 137:
                raise AssertionError(
                    f"daemon restart #{round_no} exit rc={rc}, expected 137"
                )
        d = DaemonProc(state, out, port=port)
        d.start()
        _finish(thread, result)
        detail = _check_identity(out, name, workload, nprocs, scale)
        d.terminate()
        return f"{detail}; kill points {points}, " \
               f"reconnects {result['reconnects']}"
    finally:
        d.kill()


def scenario_client_disconnect(root: str, seed: int) -> str:
    """Two clients hard-drop their sockets mid-stream, reconnect, and
    resume from the server's acked sequence."""
    workload, nprocs, scale = MATRIX[0]
    name = "client-disconnect"
    state, out = _dirs(root, name)
    rng = FaultPlan(seed=seed).rng("client-drop")
    d = DaemonProc(state, out)
    try:
        port = d.start()
        faults = {
            0: {"drop_after_batches": rng.randrange(1, 4)},
            nprocs // 2: {"drop_after_batches": rng.randrange(1, 4)},
        }
        thread, result = _submit_async(
            port, job=name, workload=workload, nprocs=nprocs, scale=scale,
            batch_events=_BATCH_EVENTS, faults=faults,
        )
        _finish(thread, result)
        if result["reconnects"] < 2:
            raise AssertionError(
                f"expected >=2 reconnects, saw {result['reconnects']}"
            )
        detail = _check_identity(out, name, workload, nprocs, scale)
        d.terminate()
        return f"{detail}; {result['reconnects']} reconnects"
    finally:
        d.kill()


def scenario_torn_frame(root: str, seed: int) -> str:
    """A client tears a frame in half and dies; the server must shrug
    (no wedge, no partial state) and the retry resumes cleanly."""
    workload, nprocs, scale = MATRIX[0]
    name = "torn-frame"
    state, out = _dirs(root, name)
    rng = FaultPlan(seed=seed).rng("torn-frame")
    d = DaemonProc(state, out)
    try:
        port = d.start()
        faults = {
            0: {"torn_frame": True,
                "drop_after_batches": rng.randrange(1, 4)},
        }
        thread, result = _submit_async(
            port, job=name, workload=workload, nprocs=nprocs, scale=scale,
            batch_events=_BATCH_EVENTS, faults=faults,
        )
        _finish(thread, result)
        detail = _check_identity(out, name, workload, nprocs, scale)
        d.terminate()
        return detail
    finally:
        d.kill()


def scenario_stalled_rank(root: str, seed: int) -> str:
    """One rank goes silent past the idle timeout (quarantined through
    the lenient path), then comes back: revived, resumed, and the final
    trace still matches the batch pipeline for *all* ranks."""
    workload, nprocs, scale = MATRIX[0]
    name = "stalled-rank"
    state, out = _dirs(root, name)
    metrics = os.path.join(root, name, "metrics.json")
    d = DaemonProc(state, out, idle_timeout=0.5, metrics_json=metrics)
    try:
        port = d.start()
        faults = {
            # Rank 0 stalls well past the idle timeout after 2 batches...
            0: {"drop_after_batches": 2, "stall_seconds": 1.5},
            # ...while rank 1 trickles tiny batches at a cadence safely
            # inside the timeout, keeping the job unfinished long enough
            # that the revival happens before the job could finalize
            # without rank 0.
            1: {"batch_events": 8, "batch_delay": 0.25},
        }
        thread, result = _submit_async(
            port, job=name, workload=workload, nprocs=nprocs, scale=scale,
            batch_events=_BATCH_EVENTS, faults=faults,
        )
        _finish(thread, result)
        detail = _check_identity(out, name, workload, nprocs, scale)
        d.terminate()
        snap = json.load(open(metrics))
        if snap.get("server.idle_quarantines", 0) < 1:
            raise AssertionError("stalled rank was never idle-quarantined")
        if snap.get("server.revivals", 0) < 1:
            raise AssertionError("quarantined rank was never revived")
        return f"{detail}; quarantined then revived"
    finally:
        d.kill()


def scenario_drain_resume(root: str, seed: int) -> str:
    """SIGTERM mid-ingest: graceful drain checkpoints everything, so no
    client ever observes an acked batch regress after the restart."""
    workload, nprocs, scale = MATRIX[1]
    name = "drain-resume"
    state, out = _dirs(root, name)
    d = DaemonProc(state, out)
    try:
        port = d.start()
        faults = {r: {"batch_delay": 0.05} for r in range(nprocs)}
        thread, result = _submit_async(
            port, job=name, workload=workload, nprocs=nprocs, scale=scale,
            batch_events=_BATCH_EVENTS, faults=faults, max_attempts=60,
        )
        time.sleep(1.0)  # let the ingest get well underway
        rc = d.terminate()
        if rc != 0:
            raise AssertionError(f"drain exit rc={rc}, expected 0")
        d = DaemonProc(state, out, port=port)
        d.start()
        _finish(thread, result)
        if result["acked_regressions"] != 0:
            raise AssertionError(
                f"{result['acked_regressions']} acked batches regressed "
                "across a graceful drain"
            )
        detail = _check_identity(out, name, workload, nprocs, scale)
        d.terminate()
        return f"{detail}; zero acked batches lost across drain"
    finally:
        d.kill()


def scenario_kill_durability(root: str, seed: int) -> str:
    """A daemon killed at batch N has all N batches in its session logs
    (each is appended before it is ingested, and the crash bypasses
    every cleanup), recovery adopts all N (each log carries its
    session's identity), and a fresh daemon finishes the job
    byte-identical."""
    workload, nprocs, scale = "fig11", 4, 1.0
    name = "kill-durability"
    state, out = _dirs(root, name)
    batches = submission_batches(workload, nprocs, scale)
    rng = FaultPlan(seed=seed).rng("kill-durability")
    kill_at = rng.randrange(batches // 3, 2 * batches // 3)
    d = DaemonProc(state, out, checkpoint_interval=0.02,
                   kill_after_batches=kill_at)
    try:
        port = d.start()
        thread, result = _submit_async(
            port, job=name, workload=workload, nprocs=nprocs, scale=scale,
            batch_events=_BATCH_EVENTS, max_attempts=60,
        )
        rc = d.wait_exit()
        if rc != 137:
            raise AssertionError(f"daemon exit rc={rc}, expected 137")
        store = SessionStore(state)
        logged = sum(
            len(store.read_log_batches(job, rank))
            for job, rank in store.discover()
        )
        if logged != kill_at:
            raise AssertionError(
                f"killed at batch {kill_at}, logs hold {logged}"
            )
        adopted = sum(len(rec.batches) for rec in store.load_all())
        if adopted != kill_at:
            raise AssertionError(
                f"killed at batch {kill_at}, recovery adopts {adopted}"
            )
        d = DaemonProc(state, out, port=port, checkpoint_interval=0.02)
        d.start()
        _finish(thread, result)
        detail = _check_identity(out, name, workload, nprocs, scale)
        d.terminate()
        return f"{detail}; killed at batch {kill_at} of {batches}, " \
               f"all {logged} in the logs and adopted"
    finally:
        d.kill()


# ---------------------------------------------------------------------------


def run_matrix(seed: int, out_path: str | None) -> int:
    """Every scenario once; prints one line each and the verdict."""
    scenarios: list[dict] = []

    def run_scenario(name: str, fn, *fnargs) -> None:
        try:
            detail = fn(*fnargs)
            ok = True
        except Exception as exc:  # a scenario must never escape
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        scenarios.append({"scenario": name, "ok": ok, "detail": detail})
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    with tempfile.TemporaryDirectory(prefix="srv-faultsmoke-") as root:
        print(f"server fault-injection smoke (seed {seed})")
        for workload, nprocs, scale in MATRIX:
            run_scenario(
                f"kill-recover-{workload}", scenario_kill_recover,
                root, seed, workload, nprocs, scale,
            )
        run_scenario(
            "double-kill-fig11", scenario_kill_recover,
            root, seed, *MATRIX[0], 2,
        )
        run_scenario("client-disconnect", scenario_client_disconnect,
                     root, seed)
        run_scenario("torn-frame", scenario_torn_frame, root, seed)
        run_scenario("stalled-rank-revival", scenario_stalled_rank,
                     root, seed)
        run_scenario("drain-resume", scenario_drain_resume, root, seed)
        run_scenario("kill-durability", scenario_kill_durability,
                     root, seed)
    passed = all(s["ok"] for s in scenarios)
    report = {
        "mode": "server",
        "seed": seed,
        "passed": passed,
        "scenarios": scenarios,
    }
    _write_report(report, out_path)
    print("PASSED" if passed else "FAILED")
    return 0 if passed else 1


def run_soak(seed: int, duration: float, nclients: int,
             out_path: str | None) -> int:
    """CI endurance mode: concurrent client waves against one daemon,
    with seeded kills and client drops, verifying every finished job."""
    rng = FaultPlan(seed=seed).rng("server-soak")
    jobs_verified = 0
    failures: list[str] = []
    kills_done = 0
    waves = 0
    with tempfile.TemporaryDirectory(prefix="srv-soak-") as root:
        state, out = _dirs(root, "soak")
        metrics = os.path.join(root, "soak", "server-metrics.json")
        d = DaemonProc(state, out, metrics_json=metrics)
        port = d.start()
        t0 = time.monotonic()
        kill_times = sorted(
            rng.uniform(0.2, 0.8) * duration for _ in range(2)
        )
        stop = threading.Event()

        def _chaos() -> None:
            nonlocal kills_done, d
            for at in kill_times:
                delay = t0 + at - time.monotonic()
                if delay > 0 and stop.wait(delay):
                    return
                if stop.is_set():
                    return
                d.kill()
                kills_done += 1
                d = DaemonProc(state, out, port=port, metrics_json=metrics)
                try:
                    d.start()
                except RuntimeError as exc:
                    failures.append(f"restart failed: {exc}")
                    return

        chaos = threading.Thread(target=_chaos, daemon=True)
        chaos.start()
        specs = [
            ("fig11", 8, 0.2), ("cg", 8, 0.2), ("farm", 7, 0.2),
        ]
        while time.monotonic() - t0 < duration:
            wave = waves
            waves += 1
            pending = []
            for c in range(nclients):
                workload, nprocs, scale = specs[c % len(specs)]
                job = f"soak-w{wave}-c{c}"
                faults = {}
                if wave == 0 and c < 2:  # the two seeded client drops
                    faults = {0: {
                        "drop_after_batches": rng.randrange(1, 4)
                    }}
                thread, result = _submit_async(
                    port, job=job, workload=workload, nprocs=nprocs,
                    scale=scale, batch_events=_BATCH_EVENTS,
                    max_attempts=120, faults=faults,
                )
                pending.append((job, workload, nprocs, scale,
                                thread, result))
            for job, workload, nprocs, scale, thread, result in pending:
                try:
                    _finish(thread, result)
                    _check_identity(out, job, workload, nprocs, scale)
                    jobs_verified += 1
                except AssertionError as exc:
                    failures.append(f"{job}: {exc}")
        stop.set()
        chaos.join(timeout=10)
        rc = d.terminate()
        if rc != 0:
            failures.append(f"final drain exited rc={rc}")
        try:
            server_metrics = json.load(open(metrics))
        except (OSError, json.JSONDecodeError) as exc:
            server_metrics = None
            failures.append(f"no server metrics artifact: {exc}")
    passed = not failures and jobs_verified > 0 and kills_done == 2
    report = {
        "mode": "server-soak",
        "seed": seed,
        "duration": duration,
        "clients": nclients,
        "waves": waves,
        "jobs_verified": jobs_verified,
        "daemon_kills": kills_done,
        "failures": failures,
        "passed": passed,
        "server_metrics": server_metrics,
    }
    _write_report(report, out_path)
    print(f"soak: {waves} wave(s), {jobs_verified} job(s) verified "
          f"byte-identical, {kills_done} daemon kill(s), "
          f"{len(failures)} failure(s)")
    for f in failures[:10]:
        print(f"  FAIL {f}")
    print("PASSED" if passed else "FAILED")
    return 0 if passed else 1


def _write_report(report: dict, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report -> {out_path}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m tests.faults.smoke",
        description="server fault matrix: seeded daemon kills, client "
                    "disconnects, torn frames, stalled ranks, drain — each "
                    "asserting the recovered trace is byte-identical to "
                    "the batch pipeline",
    )
    p.add_argument("--seed", type=int, default=20260807,
                   help="FaultPlan seed (default: 20260807)")
    p.add_argument("--soak", action="store_true",
                   help="endurance mode instead (concurrent client waves, "
                        "seeded kills/drops) for the CI soak job")
    p.add_argument("--duration", type=float, default=60.0,
                   help="soak duration in seconds (default: 60)")
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent soak clients per wave (default: 8)")
    p.add_argument("-o", "--out", default=None, metavar="PATH",
                   help="write the JSON report to PATH")
    args = p.parse_args(argv)
    if args.soak:
        return run_soak(args.seed, args.duration, args.clients, args.out)
    return run_matrix(args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
