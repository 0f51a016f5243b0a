"""Merge-scaling sweep: the inter-process merge, P up to 1024.

The inter-process merge is the one CYPRESS stage whose input grows with
the job size (P per-rank CTTs), so its asymptotics decide whether the
top-down design survives at scale.  This bench builds synthetic rank
populations by cloning the CTTs of a real traced run of a FIG5-style
even/odd halo kernel — relative peer encoding means clones of the same
template carry identical payloads and group together, exactly the
regular-application regime of the paper — then times ``merge_all``,
the single pass (one ``add_rank`` walk per rank into one accumulator).
Results go to
``results/merge_scaling.json`` including a log-log scaling exponent;
the acceptance bar is sub-quadratic (exponent < 2) at P = 1024.

Per-rank gate: at P = 256 the single pass is timed against the schedule
it replaced — one ``MergedCTT`` per rank, combined pairwise up a binary
tree — rebuilt here from the primitives that survive (``from_rank``,
``absorb``), in the same process, so the ratio does not depend on the
machine.  The single pass must cost at most ``GATE_RATIO`` of it per
rank.

Run directly (``python -m benchmarks.bench_merge_scaling``) for the full
sweep, or with ``--smoke`` (CI) for the two smallest points plus the
gate.  Under pytest the quick grid is used unless ``REPRO_FULL=1``.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import time

from repro.core import serialize
from repro.core.inter import InternTable, MergedCTT, merge_all
from repro.core.intra import IntraProcessCompressor
from repro.driver import run_compiled
from repro.static.instrument import compile_minimpi

from .common import FULL, RESULTS_DIR

SMOKE_GRID = (16, 64)
FULL_GRID = (16, 32, 64, 128, 256, 512, 1024)

TEMPLATE_RANKS = 8

GATE_RANKS = 256
GATE_RATIO = 0.7

# Even/odd halo exchange (the paper's Fig. 5 shape): every rank swaps a
# face with both neighbours each step, evens send first.  Peers are
# rank-relative, so interior ranks compress to identical CTT payloads.
_SOURCE = """
func main() {
  mpi_init();
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var step = 0; step < steps; step = step + 1) {
    if (rank % 2 == 0) {
      if (rank + 1 < size) {
        mpi_send(rank + 1, nbytes, 10);
        mpi_recv(rank + 1, nbytes, 11);
      }
      if (rank - 1 >= 0) {
        mpi_send(rank - 1, nbytes, 12);
        mpi_recv(rank - 1, nbytes, 13);
      }
    } else {
      mpi_recv(rank - 1, nbytes, 10);
      mpi_send(rank - 1, nbytes, 11);
      if (rank + 1 < size) {
        mpi_recv(rank + 1, nbytes, 12);
        mpi_send(rank + 1, nbytes, 13);
      }
    }
    compute(50);
  }
  mpi_finalize();
}
"""


def _template_ctts():
    """Trace the halo kernel once on TEMPLATE_RANKS real ranks."""
    compiled = compile_minimpi(_SOURCE, source_name="<merge-scaling>")
    comp = IntraProcessCompressor(compiled.cst)
    run_compiled(
        compiled, TEMPLATE_RANKS, defines={"steps": 12, "nbytes": 4096},
        tracer=comp,
    )
    return [comp.ctt(r) for r in range(TEMPLATE_RANKS)]


def synthesize_ranks(templates, nranks: int):
    """Clone templates out to ``nranks`` synthetic CTTs.

    Interior templates carry purely rank-relative payloads, so clones at
    the same position mod TEMPLATE_RANKS merge into stride-compressed
    rank groups — the regular-pattern regime the merge is built for.
    """
    ctts = []
    for r in range(nranks):
        # Keep boundary templates (absolute-edge behaviour) only at the
        # real boundaries; fill the interior with interior templates.
        if r == 0:
            t = templates[0]
        elif r == nranks - 1:
            t = templates[TEMPLATE_RANKS - 1]
        else:
            t = templates[2 + (r - 2) % (TEMPLATE_RANKS - 4)] if nranks > 4 \
                else templates[r % TEMPLATE_RANKS]
        clone = copy.deepcopy(t)
        clone.rank = r
        ctts.append(clone)
    return ctts


def _timed(fn, repeats: int = 3):
    """``(result, best wall time)`` over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _pairwise_tree_merge(ctts):
    """The serial schedule before the single pass: a whole merged tree
    per rank, zipped pairwise up a binary reduction tree."""
    interns = InternTable()
    trees = [MergedCTT.from_rank(c, interns) for c in ctts]
    while len(trees) > 1:
        trees = [
            trees[i].absorb(trees[i + 1]) if i + 1 < len(trees) else trees[i]
            for i in range(0, len(trees), 2)
        ]
    return trees[0].finalize()


def per_rank_gate(templates, nranks: int = GATE_RANKS) -> dict:
    ctts = synthesize_ranks(templates, nranks)
    merged, single_s = _timed(lambda: merge_all(ctts), 7)
    reference, pairwise_s = _timed(lambda: _pairwise_tree_merge(ctts), 7)
    assert serialize.dumps(merged) == serialize.dumps(reference), \
        f"single pass != pairwise bytes at P={nranks}"
    return {
        "nranks": nranks,
        "single_pass_us_per_rank": round(single_s / nranks * 1e6, 2),
        "pairwise_us_per_rank": round(pairwise_s / nranks * 1e6, 2),
        "ratio": round(single_s / pairwise_s, 3),
        "max_ratio": GATE_RATIO,
    }


def run_point(templates, nranks: int) -> dict:
    ctts = synthesize_ranks(templates, nranks)
    merged, merge_s = _timed(lambda: merge_all(ctts))
    return {
        "nranks": nranks,
        "merge_s": round(merge_s, 6),
        "us_per_rank": round(merge_s / nranks * 1e6, 2),
        "trace_bytes": len(serialize.dumps(merged)),
        "groups": sum(len(v.groups) for v in merged.vertices()),
    }


def scaling_exponent(points: list[dict], key: str = "merge_s") -> float:
    """Least-squares slope of log(time) vs log(P)."""
    xs = [math.log(p["nranks"]) for p in points]
    ys = [math.log(max(p[key], 1e-9)) for p in points]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def run_sweep(grid) -> dict:
    templates = _template_ctts()
    points = [run_point(templates, p) for p in grid]
    result = {
        "bench": "merge_scaling",
        "grid": list(grid),
        "points": points,
        "scaling_exponent": round(scaling_exponent(points), 3),
        "per_rank_gate": per_rank_gate(templates),
    }
    return result


def emit_json(result: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "merge_scaling.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# pytest entry points


def test_merge_scaling_sweep():
    grid = FULL_GRID if FULL else SMOKE_GRID
    result = run_sweep(grid)
    for p in result["points"]:
        print(
            f"  P={p['nranks']:5d}  merge {p['merge_s']:.4f}s  "
            f"{p['trace_bytes']} bytes"
        )
    if FULL:
        emit_json(result)
    # Sub-quadratic: a P^2 merge would show exponent ~2 on this sweep.
    assert result["scaling_exponent"] < 1.8, result
    assert result["per_rank_gate"]["ratio"] <= GATE_RATIO, result


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    grid = SMOKE_GRID if smoke else FULL_GRID
    result = run_sweep(grid)
    print("merge scaling sweep:")
    print(f"  {'P':>6s} {'merge (s)':>10s} {'bytes':>10s} {'groups':>7s}")
    for p in result["points"]:
        print(
            f"  {p['nranks']:6d} {p['merge_s']:10.4f} "
            f"{p['trace_bytes']:10d} {p['groups']:7d}"
        )
    print(f"  scaling exponent: {result['scaling_exponent']}")
    gate = result["per_rank_gate"]
    print(f"  per-rank gate at P={gate['nranks']}: single pass "
          f"{gate['single_pass_us_per_rank']} us/rank vs pairwise "
          f"{gate['pairwise_us_per_rank']} us/rank = {gate['ratio']}x "
          f"(max {GATE_RATIO})")
    if not smoke:
        emit_json(result)
    if gate["ratio"] > GATE_RATIO:
        print("FAIL: single-pass merge lost its per-rank margin")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
