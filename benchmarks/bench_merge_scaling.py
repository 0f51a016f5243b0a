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
the gate is sub-quadratic (exponent < 1.8) over the grid, and at every
point the ranks listed shuffled must merge to the same bytes as listed
ascending.

Run directly (``python -m benchmarks.bench_merge_scaling``) for the full
sweep, or with ``--smoke`` (CI) for the two smallest points, which
writes nothing.  Under pytest the quick grid is used unless
``REPRO_FULL=1``, which writes the JSON into ``benchmarks/out/paper/``.
"""

from __future__ import annotations

import copy
import json
import math
import random
import sys
import time

from repro.core import serialize
from repro.core.inter import merge_all
from repro.core.intra import IntraProcessCompressor
from repro.driver import run_compiled
from repro.static.instrument import compile_minimpi

from .paper import FULL, OUT, RESULTS

SMOKE_GRID = (16, 64)
FULL_GRID = (16, 32, 64, 128, 256, 512, 1024)

TEMPLATE_RANKS = 8

MAX_EXPONENT = 1.8

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


def run_point(templates, nranks: int) -> dict:
    ctts = synthesize_ranks(templates, nranks)
    merged, merge_s = _timed(lambda: merge_all(ctts))
    blob = serialize.dumps(merged)
    shuffled = list(ctts)
    random.Random(nranks).shuffle(shuffled)
    assert serialize.dumps(merge_all(shuffled)) == blob, \
        f"shuffled listing != ascending bytes at P={nranks}"
    return {
        "nranks": nranks,
        "merge_s": round(merge_s, 6),
        "us_per_rank": round(merge_s / nranks * 1e6, 2),
        "trace_bytes": len(blob),
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
    return {
        "bench": "merge_scaling",
        "grid": list(grid),
        "points": points,
        "scaling_exponent": round(scaling_exponent(points), 3),
        "max_exponent": MAX_EXPONENT,
    }


def emit_json(result: dict, out) -> None:
    out.mkdir(parents=True, exist_ok=True)
    path = out / "merge_scaling.json"
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
        emit_json(result, OUT)
    # Sub-quadratic: a P^2 merge would show exponent ~2 on this sweep.
    assert result["scaling_exponent"] < MAX_EXPONENT, result


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
    print(f"  scaling exponent: {result['scaling_exponent']} "
          f"(max {MAX_EXPONENT})")
    if not smoke:
        emit_json(result, RESULTS)
    if result["scaling_exponent"] >= MAX_EXPONENT:
        print("FAIL: the merge no longer scales sub-quadratically")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
