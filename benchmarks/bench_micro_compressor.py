"""Microbenchmarks: per-event compressor cost, isolated from the runtime.

Feeds identical synthetic event/marker streams straight into each
compressor, measuring pure compression throughput — the cleanest view of
the paper's O(1)-per-event claim (CYPRESS compares an event only against
records at its own CTT vertex; ScalaTrace searches its queue tail).

This module doubles as the **intra-process ingestion regression
harness**: it sweeps four workload shapes

* ``fig11``          — loop over a branch pair + collective (paper Fig. 11)
* ``collectives``    — flat loop of collectives (pure key-interning)
* ``nested``         — doubly nested point-to-point loop (marker heavy)
* ``irecv_waitall``  — nonblocking pairs + waitall (request-GID path)

through two ingestion modes

* ``callbacks``  — one emitter call per marker/event, through the
  rank's emitter ``comp.stream(rank)`` bound once: the live-tracing
  route (append to the rank's buffer, drain through ``ingest_stream`` a
  buffer at a time, final ``flush()`` included);
* ``stream``     — batched :meth:`ingest_stream` over a captured opcode
  stream.

Both modes must produce byte-identical serialized traces; the harness
asserts this on every run.  ``python -m benchmarks.bench_micro_compressor``
rewrites ``results/BENCH_intra.json`` including conservative regression
floors (25% of measured); ``--smoke`` (CI) re-measures every shape and
fails if fig11 throughput drops below the committed floor.
"""

from __future__ import annotations

import json
import sys
import time

from repro.baselines.scalatrace import ScalaTraceCompressor
from repro.baselines.scalatrace2 import ScalaTrace2Compressor
from repro.core import serialize
from repro.core.inter import merge_all
from repro.core.intra import IntraProcessCompressor
from repro.mpisim.events import NO_PEER, CommEvent
from repro.mpisim.pmpi import (
    OP_BRANCH_ENTER,
    OP_BRANCH_EXIT,
    OP_EVENT,
    OP_LOOP_ITER,
    OP_LOOP_POP,
    OP_LOOP_PUSH,
)
from repro.static.instrument import compile_minimpi

from .paper import OUT, RESULTS, write

BENCH_JSON = RESULTS / "BENCH_intra.json"
# Mirror at the repo root so the latest committed numbers are one click
# away (CI uploads both; the root copy is what READMEs link to).
BENCH_JSON_ROOT = RESULTS.parent / "BENCH_intra.json"

# Observability must be free when off and near-free when on: the hot
# ingestion loops carry no registry calls at all (per-event stats are
# plain slow-path integer counters, rated post-hoc against CTT state),
# so metrics-on may cost at most the stage-level span/publish work.
# The --smoke gate asserts the *paired* metrics-on/metrics-off ratio
# stays under this bound.
OBS_OVERHEAD_LIMIT = 1.03

# Per-event-callback throughput of the fig11 shape measured on the commit
# preceding this optimization pass (best of 5, events/s) — the "3x"
# acceptance ratio in BENCH_intra.json is relative to this.
BASELINE_PRE_PR = 247_272

# Whole-machine throughput drifts ±30% between runs, so a ratio of two
# measurements taken at different times is unreliable.  This is the
# *paired* speedup: pre-PR tree and this tree run in alternating
# adjacent subprocesses (best-of-5 in each), ratio per round, median of
# 5 rounds.  Committed at measurement time; the live single-run ratio is
# also written to the JSON for comparison.
PAIRED_SPEEDUP_VS_PRE_PR = 3.16

# A loop over a branch pair — the paper's Fig. 11 shape.
PROGRAM = """
func main() {
  for (var i = 0; i < n; i = i + 1) {
    if (i % 2 == 0) { mpi_send(1, 4096, 7); } else { mpi_recv(1, 4096, 7); }
    mpi_allreduce(8);
  }
}
"""

PROGRAM_COLLECTIVES = """
func main() {
  for (var i = 0; i < n; i = i + 1) {
    mpi_allreduce(8);
    mpi_barrier();
    mpi_bcast(0, 1024);
  }
}
"""

PROGRAM_NESTED = """
func main() {
  for (var i = 0; i < n; i = i + 1) {
    for (var j = 0; j < m; j = j + 1) {
      mpi_send(1, 2048, 5);
      mpi_recv(1, 2048, 5);
    }
  }
}
"""

PROGRAM_IRECV = """
func main() {
  for (var i = 0; i < n; i = i + 1) {
    var r[2];
    r[0] = mpi_irecv(1, 4096, 9);
    r[1] = mpi_isend(1, 4096, 9);
    mpi_waitall(r, 2);
  }
}
"""

N_EVENTS = 4000


def _structure_ids(program: str = PROGRAM):
    compiled = compile_minimpi(program)
    loop_ids = []
    branch_id = None
    for node in compiled.cst.preorder():
        if node.kind == "loop":
            loop_ids.append(node.ast_id)
        if node.kind == "branch" and branch_id is None:
            branch_id = node.ast_id
    return compiled.cst, loop_ids, branch_id


# ---------------------------------------------------------------------------
# Stream builders: one captured opcode stream per shape (rank 0).


def _stream_fig11(iters: int):
    cst, (loop_id,), branch_id = _structure_ids(PROGRAM)
    stream = [(OP_LOOP_PUSH, loop_id)]
    t = 0.0
    seq = 0
    for i in range(iters):
        stream.append((OP_LOOP_ITER, loop_id))
        path = i % 2
        stream.append((OP_BRANCH_ENTER, branch_id, path))
        op = "MPI_Send" if path == 0 else "MPI_Recv"
        stream.append((OP_EVENT, CommEvent(
            op=op, rank=0, seq=seq, peer=1, tag=7, nbytes=4096,
            time_start=t, duration=1.0)))
        t += 2.0
        seq += 1
        stream.append((OP_BRANCH_EXIT, branch_id))
        stream.append((OP_EVENT, CommEvent(
            op="MPI_Allreduce", rank=0, seq=seq, nbytes=8,
            time_start=t, duration=1.5)))
        t += 2.5
        seq += 1
    stream.append((OP_LOOP_POP, loop_id))
    return cst, stream, 2 * iters


def _stream_collectives(iters: int):
    cst, (loop_id,), _ = _structure_ids(PROGRAM_COLLECTIVES)
    stream = [(OP_LOOP_PUSH, loop_id)]
    t = 0.0
    seq = 0
    for _i in range(iters):
        stream.append((OP_LOOP_ITER, loop_id))
        for op, nbytes, root in (
            ("MPI_Allreduce", 8, -1),
            ("MPI_Barrier", 0, -1),
            ("MPI_Bcast", 1024, 0),
        ):
            stream.append((OP_EVENT, CommEvent(
                op=op, rank=0, seq=seq, peer=NO_PEER, nbytes=nbytes,
                root=root, time_start=t, duration=1.0)))
            t += 1.5
            seq += 1
    stream.append((OP_LOOP_POP, loop_id))
    return cst, stream, 3 * iters


def _stream_nested(outer: int, inner: int):
    cst, (outer_id, inner_id), _ = _structure_ids(PROGRAM_NESTED)
    stream = [(OP_LOOP_PUSH, outer_id)]
    t = 0.0
    seq = 0
    for _i in range(outer):
        stream.append((OP_LOOP_ITER, outer_id))
        stream.append((OP_LOOP_PUSH, inner_id))
        for _j in range(inner):
            stream.append((OP_LOOP_ITER, inner_id))
            for op in ("MPI_Send", "MPI_Recv"):
                stream.append((OP_EVENT, CommEvent(
                    op=op, rank=0, seq=seq, peer=1, tag=5, nbytes=2048,
                    time_start=t, duration=1.0)))
                t += 1.5
                seq += 1
        stream.append((OP_LOOP_POP, inner_id))
    stream.append((OP_LOOP_POP, outer_id))
    return cst, stream, 2 * outer * inner


def _stream_irecv(iters: int):
    cst, (loop_id,), _ = _structure_ids(PROGRAM_IRECV)
    stream = [(OP_LOOP_PUSH, loop_id)]
    t = 0.0
    seq = 0
    rid = 0
    for _i in range(iters):
        stream.append((OP_LOOP_ITER, loop_id))
        stream.append((OP_EVENT, CommEvent(
            op="MPI_Irecv", rank=0, seq=seq, peer=1, tag=9, nbytes=4096,
            req=rid, time_start=t, duration=0.2)))
        t += 0.5
        seq += 1
        stream.append((OP_EVENT, CommEvent(
            op="MPI_Isend", rank=0, seq=seq, peer=1, tag=9, nbytes=4096,
            req=rid + 1, time_start=t, duration=0.2)))
        t += 0.5
        seq += 1
        stream.append((OP_EVENT, CommEvent(
            op="MPI_Waitall", rank=0, seq=seq, reqs=(rid, rid + 1),
            time_start=t, duration=1.0)))
        t += 1.5
        seq += 1
        rid += 2
    stream.append((OP_LOOP_POP, loop_id))
    return cst, stream, 3 * iters


def _shape(name: str, scale: int = 1):
    if name == "fig11":
        return _stream_fig11(10_000 * scale)
    if name == "collectives":
        return _stream_collectives(6_000 * scale)
    if name == "nested":
        return _stream_nested(200 * scale, 50)
    if name == "irecv_waitall":
        return _stream_irecv(6_000 * scale)
    raise ValueError(name)


SHAPE_NAMES = ("fig11", "collectives", "nested", "irecv_waitall")
MODES = ("callbacks", "stream")


def publish_gauges(prefix: str, values: dict) -> None:
    """Re-emit measurements through the observability registry (as
    ``bench.{prefix}.{key}`` gauges) when one is active (``--metrics-out``);
    no-op otherwise."""
    from repro import obs

    registry = obs.active()
    if registry is None:
        return
    for key, value in values.items():
        registry.gauge_set(f"bench.{prefix}.{key}", float(value))


# ---------------------------------------------------------------------------
# Ingestion modes.


def _drive_callbacks(comp: IntraProcessCompressor, rank: int, stream) -> None:
    """Replay a captured stream one item per emitter call — the
    live-tracing mode: the emitter buffers, and the end-of-run
    ``flush()`` the runtime would issue is part of the timed work."""
    emit = comp.stream(rank)
    for item in stream:
        emit(item)
    comp.flush()


def _merged_blob(comp: IntraProcessCompressor) -> bytes:
    ranks = comp.ranks()
    return serialize.dumps(merge_all([comp.ctt(r) for r in ranks]))


def measure_shape(name: str, scale: int = 1, rounds: int = 3) -> dict:
    """Measure one shape through every ingestion mode; assert all modes
    produce byte-identical traces.  Rates are best-of-``rounds``."""
    cst, stream, nevents = _shape(name, scale)

    def best(run) -> float:
        b = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            run()
            dt = time.perf_counter() - t0
            b = dt if b is None else min(b, dt)
        return b

    comps: dict[str, IntraProcessCompressor] = {}

    def run_callbacks():
        comps["callbacks"] = c = IntraProcessCompressor(cst)
        _drive_callbacks(c, 0, stream)

    def run_stream():
        comps["stream"] = c = IntraProcessCompressor(cst)
        c.ingest_stream(0, stream)

    rates = {
        "callbacks": nevents / best(run_callbacks),
        "stream": nevents / best(run_stream),
    }

    # Byte-identity across the modes.
    assert _merged_blob(comps["stream"]) == _merged_blob(comps["callbacks"]), (
        f"{name}: stream trace differs from callbacks")
    publish_gauges(name, {f"{k}_events_per_s": v for k, v in rates.items()})
    return {
        "events": nevents,
        "rates": {k: round(v) for k, v in rates.items()},
    }


def measure_obs_overhead(scale: int = 1, rounds: int = 9,
                         reps: int = 3) -> dict:
    """Paired metrics-on vs metrics-off cost of the batched ingestion path
    (fig11 shape, ``ingest_stream`` + ``publish_metrics``).

    Whole-machine throughput drifts between runs, so each round times the
    two configurations back to back (best-of-``reps`` each) and takes
    their ratio; the arm order alternates per round so monotone drift
    cancels in the median, and garbage is collected before each arm.
    The reported overhead is the *trimmed* median across ``rounds``: the
    top and bottom ``rounds // 4`` ratios are discarded before taking the
    median, so a couple of scheduler-spiked rounds (observed up to ~1.15
    on loaded CI boxes against a 1.03 limit) cannot drag the statistic
    over the gate.  The registry active on entry (if any) is restored."""
    import gc

    from repro import obs

    cst, stream, nevents = _shape("fig11", scale)
    outer = obs.disable()

    def run_once() -> None:
        comp = IntraProcessCompressor(cst)
        with obs.span("bench.ingest"):
            comp.ingest_stream(0, stream)
        registry = obs.active()
        if registry is not None:
            comp.publish_metrics(registry)

    def best_time(enabled: bool) -> float:
        if enabled:
            obs.enable()
        gc.collect()
        try:
            b = None
            for _ in range(reps):
                t0 = time.perf_counter()
                run_once()
                dt = time.perf_counter() - t0
                b = dt if b is None else min(b, dt)
            return b
        finally:
            if enabled:
                obs.disable()

    try:
        run_once()  # warm caches outside the timed rounds
        ratios = []
        for i in range(rounds):
            if i % 2 == 0:
                off = best_time(False)
                on = best_time(True)
            else:
                on = best_time(True)
                off = best_time(False)
            ratios.append(on / off)
    finally:
        if outer is not None:
            obs.enable(outer)
    ratios.sort()
    trim = rounds // 4 if rounds >= 4 else 0
    kept = ratios[trim:len(ratios) - trim] if trim else ratios
    median = kept[len(kept) // 2]
    result = {
        "events": nevents,
        "rounds": rounds,
        "trimmed": trim,
        "median_on_off_ratio": round(median, 4),
        "ratios": [round(r, 4) for r in ratios],
        "limit": OBS_OVERHEAD_LIMIT,
    }
    publish_gauges("obs_overhead", {"median_on_off_ratio": median})
    return result


def run_harness(scale: int = 1) -> dict:
    shapes = {name: measure_shape(name, scale) for name in SHAPE_NAMES}
    fig11 = shapes["fig11"]["rates"]
    return {
        "bench": "intra_ingestion",
        "baseline_pre_pr_events_per_s": BASELINE_PRE_PR,
        "shapes": shapes,
        "obs_overhead": measure_obs_overhead(scale),
        "speedup_stream_vs_pre_pr_live": round(
            fig11["stream"] / BASELINE_PRE_PR, 2),
        "speedup_stream_vs_pre_pr_paired": PAIRED_SPEEDUP_VS_PRE_PR,
        # Conservative regression floors: 25% of measured, absorbing
        # machine variance while still catching order-of-magnitude
        # regressions (a lost fast path, an accidental O(n) scan).
        "floors": {
            name: {
                mode: int(shapes[name]["rates"][mode] * 0.25)
                for mode in MODES
            }
            for name in SHAPE_NAMES
        },
    }


def check_smoke() -> int:
    """CI gate: re-measure every shape (each asserts byte-identity
    across its modes) and compare fig11 against the committed floors."""
    committed = json.loads(BENCH_JSON.read_text())["floors"]["fig11"]
    floors = {mode: committed.get(mode) for mode in MODES}
    measured = {
        name: measure_shape(name, scale=1, rounds=3)["rates"]
        for name in SHAPE_NAMES
    }
    rates = measured["fig11"]
    print(f"fig11 smoke: callbacks {rates['callbacks']:,} ev/s, "
          f"stream {rates['stream']:,} ev/s "
          f"(floors: {floors})")
    failed = 0
    for mode, floor in floors.items():
        if floor is not None and rates[mode] < floor:
            print(f"FAIL: {mode} {rates[mode]:,} ev/s below committed "
                  f"floor {floor:,}")
            failed = 1
    ov = measure_obs_overhead()
    print(f"fig11 metrics-on overhead: trimmed-median paired ratio "
          f"{ov['median_on_off_ratio']:.4f} over {ov['rounds']} rounds "
          f"(trim {ov['trimmed']}/side, limit {OBS_OVERHEAD_LIMIT:.2f})")
    if ov["median_on_off_ratio"] > OBS_OVERHEAD_LIMIT:
        print(f"FAIL: observability overhead {ov['median_on_off_ratio']:.4f} "
              f"exceeds {OBS_OVERHEAD_LIMIT:.2f} — a registry call leaked "
              f"onto the per-event path")
        failed = 1
    if not failed:
        print("OK: ingestion throughput above committed floors, "
              "observability overhead within limit")
    return failed


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (quick comparisons vs the baselines).


def _drive_cypress(comp, loop_id, branch_id, iters):
    seq = 0
    emit = comp.stream(0)
    emit((OP_LOOP_PUSH, loop_id))
    for i in range(iters):
        emit((OP_LOOP_ITER, loop_id))
        path = 0 if i % 2 == 0 else 1
        emit((OP_BRANCH_ENTER, branch_id, path))
        op = "MPI_Send" if path == 0 else "MPI_Recv"
        emit((OP_EVENT, CommEvent(op=op, rank=0, seq=seq, peer=1,
                                  tag=7, nbytes=4096)))
        seq += 1
        emit((OP_BRANCH_EXIT, branch_id))
        emit((OP_EVENT, CommEvent(op="MPI_Allreduce", rank=0, seq=seq,
                                  nbytes=8)))
        seq += 1
    emit((OP_LOOP_POP, loop_id))
    comp.flush()


def _drive_flat(comp, iters):
    seq = 0
    emit = comp.stream(0)
    for i in range(iters):
        op = "MPI_Send" if i % 2 == 0 else "MPI_Recv"
        emit((OP_EVENT, CommEvent(op=op, rank=0, seq=seq, peer=1,
                                  tag=7, nbytes=4096)))
        seq += 1
        emit((OP_EVENT, CommEvent(op="MPI_Allreduce", rank=0, seq=seq,
                                  nbytes=8)))
        seq += 1


def test_micro_cypress_throughput(benchmark):
    cst, (loop_id,), branch_id = _structure_ids()

    def run():
        comp = IntraProcessCompressor(cst)
        _drive_cypress(comp, loop_id, branch_id, N_EVENTS // 2)
        return comp

    comp = benchmark(run)
    # Compression happened: 3 leaf records total (send/recv/allreduce).
    assert comp.ctt(0).record_count() == 3


def test_micro_scalatrace_throughput(benchmark):
    def run():
        comp = ScalaTraceCompressor()
        _drive_flat(comp, N_EVENTS // 2)
        return comp

    comp = benchmark(run)
    assert len(comp.queue(0)) < 10  # folded into RSDs


def test_micro_scalatrace2_throughput(benchmark):
    def run():
        comp = ScalaTrace2Compressor()
        _drive_flat(comp, N_EVENTS // 2)
        return comp

    comp = benchmark(run)
    assert len(comp.queue(0)) < 10


def test_micro_summary(benchmark):
    """Events/second for each compressor, printed side by side."""
    cst, (loop_id,), branch_id = _structure_ids()

    def measure():
        out = {}
        t0 = time.perf_counter()
        comp = IntraProcessCompressor(cst)
        _drive_cypress(comp, loop_id, branch_id, N_EVENTS // 2)
        out["cypress"] = N_EVENTS / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        _drive_flat(ScalaTraceCompressor(), N_EVENTS // 2)
        out["scalatrace"] = N_EVENTS / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        _drive_flat(ScalaTrace2Compressor(), N_EVENTS // 2)
        out["scalatrace2"] = N_EVENTS / (time.perf_counter() - t0)
        return out

    rates = benchmark.pedantic(measure, rounds=3, iterations=1)
    write(
        OUT, "micro_compressor",
        ["Microbench: compressor throughput (events/s, marker cost included "
         "for CYPRESS)"]
        + [f"  {k:12s} {v:12.0f}" for k, v in rates.items()],
    )
    assert rates["cypress"] > 0


# ---------------------------------------------------------------------------
# CLI: full harness (rewrites results/BENCH_intra.json) or --smoke gate.


def main(argv: list[str] | None = None) -> int:
    from repro import obs

    argv = sys.argv[1:] if argv is None else argv
    metrics_out = None
    if "--metrics-out" in argv:
        i = argv.index("--metrics-out")
        metrics_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
        obs.enable()
    try:
        if "--smoke" in argv:
            return check_smoke()
        result = run_harness()
    finally:
        if metrics_out is not None:
            registry = obs.disable()
            obs.write_json(registry, metrics_out)
            print(f"metrics -> {metrics_out}")
    print("intra-process ingestion throughput (events/s, best of 3):")
    header = f"  {'shape':16s}" + "".join(f"{m:>14s}" for m in MODES)
    print(header)
    for name, shape in result["shapes"].items():
        r = shape["rates"]
        print(f"  {name:16s}" + "".join(f"{r[m]:14,d}" for m in MODES))
    print(f"  fig11 stream vs pre-PR baseline "
          f"({BASELINE_PRE_PR:,} ev/s): "
          f"{result['speedup_stream_vs_pre_pr_live']:.2f}x live, "
          f"{PAIRED_SPEEDUP_VS_PRE_PR:.2f}x paired (committed)")
    ov = result["obs_overhead"]
    print(f"  fig11 metrics-on overhead: median paired ratio "
          f"{ov['median_on_off_ratio']:.4f} (limit {ov['limit']:.2f})")
    blob = json.dumps(result, indent=2) + "\n"
    RESULTS.mkdir(exist_ok=True)
    BENCH_JSON.write_text(blob)
    BENCH_JSON_ROOT.write_text(blob)
    print(f"wrote {BENCH_JSON} (mirrored to {BENCH_JSON_ROOT})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
