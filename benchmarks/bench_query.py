"""Query-engine latency vs replay-then-analyze (the §VII-D claim).

The point of the decompression-free query layer is that analysis cost
tracks the *compressed* size, not the trace length.  This bench traces
three shapes with very different compression ratios —

* ``fig11`` — the paper's Fig. 11 loop (branch pair + collective) with a
  large iteration count: thousands of events per rank collapse into a
  handful of stride tuples, so the compressed form is tiny and the
  engine's advantage should be largest;
* ``cg`` — a regular NPB-style halo/allreduce kernel (high compression);
* ``farm`` — a master/worker shape with data-dependent branching (the
  adversarial, lower-compression case);

then times, for each shape:

* **engine** — all four queries (traffic by op + rank_pair, one
  ordering, one rank_profile, critical_leaves) straight off the merged
  CTT;
* **replay** — one ``decompress_all`` plus the same four answers
  computed from the replayed events (the oracle twins, fed the shared
  replay so the baseline is not charged four times for decompression).

Reported per shape: events, best-of-N latency for both sides, and the
speedup.  The acceptance bar (``--smoke``, CI) is a ≥5× win on at least
one high-compression shape.  Results go to ``results/bench_query.json``
/ ``.txt``; a ``--smoke`` run writes them to ``benchmarks/out/paper/``.
"""

from __future__ import annotations

import json
import sys
import time

from repro import query
from repro.core import run_cypress
from repro.workloads import get

from .paper import OUT, RESULTS, SCALE, fmt_row, write

# Fig. 11 shape, scaled up: one loop whose body alternates a branch pair
# and a collective.  ITERS iterations × 2 events × nprocs ranks of raw
# trace compress into O(1) stride tuples.
FIG11_SOURCE = """
func main() {
  mpi_init();
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < iters; i = i + 1) {
    if (rank % 2 == 0) {
      mpi_send((rank + 1) % size, 4096, 7);
    } else {
      mpi_recv((rank + size - 1) % size, 4096, 7);
    }
    mpi_allreduce(8);
  }
  mpi_finalize();
}
"""

FIG11_ITERS = 2000
REPEAT = 5


def _trace_fig11(nprocs: int = 8):
    iters = max(50, int(FIG11_ITERS * SCALE))
    run = run_cypress(FIG11_SOURCE, nprocs, defines={"iters": iters})
    return run.merge(), run.run_result.total_events


def _trace_workload(name: str):
    w = get(name)
    nprocs = min((p for p in w.valid_procs if p >= 4), default=min(w.valid_procs))
    run = run_cypress(w.source, nprocs, defines=w.defines(nprocs, SCALE))
    return run.merge(), run.run_result.total_events


def _pick_gids(merged) -> tuple[int, int, int]:
    """Two call-site GIDs with events for some rank, plus that rank."""
    index = query.TreeIndex(merged)
    from repro.static.cst import CALL

    for vertex in merged.root.preorder():
        if vertex.kind != CALL:
            continue
        for group in vertex.groups:
            if group.ranks and group.records:
                rank = group.ranks[0]
                gids = [
                    v.gid for v in merged.root.preorder()
                    if v.kind == CALL and v.group_of(rank) is not None
                ]
                if len(gids) >= 2:
                    return gids[0], gids[-1], rank
    return 1, 1, 0  # pragma: no cover - every traced shape has leaves


def _engine_pass(merged, gid_a: int, gid_b: int, rank: int) -> None:
    query.traffic(merged, group_by="op")
    query.traffic(merged, group_by="rank_pair")
    query.ordering(merged, gid_a, gid_b, rank)
    query.rank_profile(merged, rank)
    query.critical_leaves(merged, k=10)


def _replay_pass(merged, gid_a: int, gid_b: int, rank: int) -> None:
    from repro.core.decompress import decompress_all

    traces = decompress_all(merged)
    query.traffic_via_replay(merged, group_by="op", traces=traces)
    query.traffic_via_replay(merged, group_by="rank_pair", traces=traces)
    query.ordering_via_replay(merged, gid_a, gid_b, rank,
                              events=traces[rank])
    query.rank_profile_via_replay(merged, rank, events=traces[rank])
    query.critical_leaves_via_replay(merged, k=10, traces=traces)


def _best_of(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def measure_shape(label: str, merged, events: int) -> dict:
    gid_a, gid_b, rank = _pick_gids(merged)
    # Materialize lazy group records once so neither side pays the
    # first-touch cost inside its timed region.
    _engine_pass(merged, gid_a, gid_b, rank)
    engine_s = _best_of(_engine_pass, merged, gid_a, gid_b, rank)
    replay_s = _best_of(_replay_pass, merged, gid_a, gid_b, rank)
    return {
        "shape": label,
        "events": events,
        "engine_ms": engine_s * 1e3,
        "replay_ms": replay_s * 1e3,
        "speedup": replay_s / engine_s if engine_s > 0 else float("inf"),
    }


def run_bench(smoke: bool = False) -> dict:
    shapes = []
    merged, events = _trace_fig11()
    shapes.append(("fig11", merged, events))
    if not smoke:
        for name in ("cg", "farm"):
            m, e = _trace_workload(name)
            shapes.append((name, m, e))
    rows = [measure_shape(label, m, e) for label, m, e in shapes]

    widths = [8, 10, 12, 12, 9]
    lines = [
        "query latency: engine (compressed walk) vs replay-then-analyze",
        fmt_row(["shape", "events", "engine(ms)", "replay(ms)", "speedup"],
                widths),
    ]
    for r in rows:
        lines.append(fmt_row(
            [r["shape"], r["events"], f"{r['engine_ms']:.2f}",
             f"{r['replay_ms']:.2f}", f"{r['speedup']:.1f}x"], widths))
    out = OUT if smoke else RESULTS
    write(out, "bench_query", lines)

    result = {"rows": rows, "repeat": REPEAT}
    (out / "bench_query.json").write_text(json.dumps(result, indent=2) + "\n")

    best = max(r["speedup"] for r in rows)
    # Acceptance bar: the engine must beat replay-then-analyze by ≥5× on
    # at least one high-compression shape.
    assert best >= 5.0, (
        f"query engine speedup {best:.1f}x < 5x on every shape — "
        f"decompression-free walk lost its advantage"
    )
    print(f"\nbest speedup {best:.1f}x (floor 5x) — OK")
    return result


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    run_bench(smoke="--smoke" in argv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
