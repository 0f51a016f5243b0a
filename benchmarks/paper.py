"""The paper's evaluation (§VII): Figs. 15–21, Table I and the ablations,
from one table of experiments.

Each :class:`Experiment` names its results table, the grid of points it
measures, the row each point contributes, how the rows are laid out, and
the checks on them.  Absolute numbers differ from the paper's (the
substrate is a simulator and the iteration counts are scaled); the
checks assert the qualitative *shape* the paper reports: who wins, and
the direction of scaling.

Two grids are available:

* the default **quick** grid (small process counts, scaled iterations),
  about twenty seconds for every experiment;
* the **paper** grid (the paper's process counts; ``REPRO_FULL=1``),
  whose tables carry a ``_full`` suffix and the commit they were
  measured at.

``python -m benchmarks.paper`` runs every experiment and rewrites its
table under ``results/``; it exits 1 if a check fails.  ``python -m
pytest benchmarks/test_paper.py`` runs the same experiments and checks,
one test each, and writes the tables into ``benchmarks/out/paper/``
(git-ignored), so a check run leaves ``results/`` alone.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.analysis.patterns import (
    ascii_heatmap,
    communication_matrix,
    message_sizes,
    neighbor_sets,
)
from repro.analysis.stats import (
    APP_MEMORY_BASELINE,
    RunMeasurement,
    measure_all_methods,
)
from repro.core import run_cypress
from repro.core.decompress import decompress_rank
from repro.core.inter import merge_all
from repro.core.intra import CypressConfig, IntraProcessCompressor
from repro.core.serialize import dumps
from repro.driver import run_compiled
from repro.mpisim.pmpi import TimingSink, TraceSink
from repro.replay import fit_loggp, predict
from repro.static.instrument import compile_minimpi
from repro.workloads import get

FULL = os.environ.get("REPRO_FULL", "") == "1"
SCALE = float(os.environ.get("REPRO_SCALE", "1.0" if FULL else "0.4"))

#: Where ``python -m benchmarks.<script>`` writes its tables.
RESULTS = Path(__file__).resolve().parent.parent / "results"
#: Where a check run (pytest, ``--smoke``) writes them instead.
OUT = Path(__file__).resolve().parent / "out" / "paper"

# Process-count grids per workload: (quick, paper — Fig. 15's x axes).
_GRIDS: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {
    "bt": ((9, 16, 36), (64, 121, 256, 400)),
    "sp": ((9, 16, 36), (64, 121, 256, 400)),
    "cg": ((8, 16, 32), (64, 128, 256, 512)),
    "ep": ((8, 16, 32), (64, 128, 256, 512)),
    "ft": ((8, 16, 32), (64, 128, 256, 512)),
    "lu": ((8, 16, 32), (64, 128, 256, 512)),
    "mg": ((8, 16, 32), (64, 128, 256, 512)),
    "dt": ((9, 17, 33), (48, 64, 128, 256)),
    "leslie3d": ((8, 16, 32), (32, 64, 128, 256, 512)),
}


def procs_for(name: str) -> tuple[int, ...]:
    quick, paper = _GRIDS[name]
    return paper if FULL else quick


@cache
def measurement(name: str, nprocs: int) -> RunMeasurement:
    """Every method on one run of ``name`` at ``nprocs`` ranks, measured
    once per process and shared by every experiment that reads it."""
    return measure_all_methods(get(name), nprocs, scale=SCALE)


def size_kb(m: RunMeasurement, method: str) -> float:
    """Trace size in KB for a method label (supports the +Gzip variants)."""
    if method.endswith("+gzip"):
        base = m.methods[method[: -len("+gzip")]]
        return (base.gzip_bytes or base.trace_bytes) / 1024
    r = m.methods[method]
    if method == "gzip":
        # The "Gzip" series of Fig. 15 is the gzip-compressed raw trace.
        return (r.gzip_bytes or r.trace_bytes) / 1024
    return r.trace_bytes / 1024


def fmt_row(cells: list, widths: list[int]) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))


# ---------------------------------------------------------------------------
# The writer and the loop.


@cache
def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=RESULTS.parent,
            capture_output=True, text=True,
        )
    except OSError:  # no git: a source tarball
        return "unknown"
    return done.stdout.strip() or "unknown"


def write(out: Path, name: str, lines: list[str]) -> None:
    """Print a table and write it to ``out/<name>.txt``.  A paper-grid
    run writes ``<name>_full.txt``, ending with the commit it measured,
    so the quick-grid tables are not overwritten."""
    if FULL:
        lines = [*lines, f"measured at commit {_commit()}"]
        name += "_full"
    text = "\n".join(lines)
    print("\n" + text)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.txt").write_text(text + "\n")


@dataclass(frozen=True)
class Experiment:
    """One results table: ``row`` measures each of ``points``, ``render``
    lays the ``(point, row)`` pairs out as the table's lines, and
    ``check`` asserts the paper's shape on the same pairs."""

    name: str
    points: tuple
    row: Callable[[Any], Any]
    render: Callable[[list], list[str]]
    check: Callable[[list], None]


def run(exp: Experiment, out: Path) -> None:
    """Measure every point, write the table, then check it (a failed
    check still leaves its table to read)."""
    rows = [(point, exp.row(point)) for point in exp.points]
    write(out, exp.name, exp.render(rows))
    exp.check(rows)


# ---------------------------------------------------------------------------
# Trace sizes: Fig. 15 (NPB) and Fig. 19 (LESlie3d).

NPB = ("bt", "cg", "dt", "ep", "ft", "lu", "mg", "sp")
FIG15_SERIES = ("gzip", "scalatrace", "scalatrace2", "scalatrace2+gzip",
                "cypress", "cypress+gzip")
FIG19_SERIES = ("gzip", "scalatrace", "cypress")


def _sizes(name: str, series: tuple[str, ...]):
    return lambda nprocs: {
        s: size_kb(measurement(name, nprocs), s) for s in series
    }


def _size_table(title: str, header: tuple[str, ...], series, width: int):
    def render(rows):
        widths = [6] + [width] * len(series)
        return [title, fmt_row(["procs", *header], widths)] + [
            fmt_row([nprocs] + [f"{kb[s]:.2f}" for s in series], widths)
            for nprocs, kb in rows
        ]
    return render


def _fig15_check(name: str):
    def check(rows):
        (p0, first), (p1, last) = rows[0], rows[-1]
        growth = p1 / p0
        # Gzip scales with P...
        assert last["gzip"] > first["gzip"] * (growth / 3)
        # ...while CYPRESS stays flat-to-sublinear.
        assert last["cypress"] < first["cypress"] * growth
        # The shipped form (Cypress+Gzip) beats per-rank Gzip once the
        # job is past toy sizes; asserted at the grid's largest P.
        assert last["cypress+gzip"] < last["gzip"], name
        if name == "mg":
            for nprocs, kb in rows:
                assert kb["cypress"] < kb["scalatrace"], f"mg@{nprocs}"
        if name == "sp":
            # What is left of the paper's one loss (Fig. 15h): on SP,
            # ScalaTrace-2+Gzip is the strongest baseline.  Since the
            # v9 container's torus-relative peers, raw CYPRESS is under
            # it too (3.90 against 3.95 KB at P=36, EXPERIMENTS.md).
            for method in ("gzip", "scalatrace", "scalatrace2"):
                assert last["scalatrace2+gzip"] < last[method], method
    return check


def _fig19_check(rows):
    for nprocs, kb in rows:
        assert kb["cypress"] < kb["scalatrace"], f"@{nprocs}"
        assert kb["cypress"] < kb["gzip"], f"@{nprocs}"
    (p0, first), (p1, last) = rows[0], rows[-1]
    growth = p1 / p0
    assert last["gzip"] > first["gzip"] * growth / 3  # ~linear
    assert last["cypress"] < first["cypress"] * growth / 2  # sub-linear


# ---------------------------------------------------------------------------
# Compression overhead: Fig. 16 (intra-process) and Fig. 18 (the merge).

FIG16 = ("bt", "cg", "ft", "lu", "mg", "sp")
FIG18 = ("bt", "cg", "lu", "mg", "sp")
METHODS = ("scalatrace", "scalatrace2", "cypress")


def _intra(name: str, nprocs: int):
    """Time % of the untraced run, µs per traced event (the one that
    compares across versions of the simulator), and memory %."""
    m = measurement(name, nprocs)
    return (
        {k: m.overhead_pct(k, "intra") for k in METHODS},
        {k: m.us_per_event(k, "intra") for k in METHODS},
        {k: 100.0 * m.methods[k].memory_bytes / APP_MEMORY_BASELINE
         for k in ("scalatrace", "cypress")},
    )


def _fig16_render(name: str):
    def render(rows):
        widths = [6, 22, 22, 22, 14, 14]
        return [
            f"Figure 16 ({name.upper()}): intra-process overhead, "
            f"scale={SCALE} (time % of the untraced run, us per traced "
            "event)",
            fmt_row(["procs", "t%ScalaTrace (us/ev)",
                     "t%ScalaTrace2 (us/ev)", "t%Cypress (us/ev)",
                     "m%ScalaTrace", "m%Cypress"], widths),
        ] + [
            fmt_row([nprocs,
                     *(f"{tp[k]:.1f} ({us[k]:.2f})" for k in METHODS),
                     f"{mp['scalatrace']:.4f}", f"{mp['cypress']:.4f}"],
                    widths)
            for nprocs, (tp, us, mp) in rows
        ]
    return render


def _fig16_check(name: str):
    def check(rows):
        for nprocs, (tp, _, mp) in rows:
            assert tp["cypress"] < tp["scalatrace"], f"{name}@{nprocs}"
            assert mp["cypress"] <= mp["scalatrace"] * 1.5, f"{name}@{nprocs}"
    return check


def _mean(rows, i: int) -> dict[str, float]:
    """Per-method mean of the ``i``-th field of every row."""
    total = dict.fromkeys(METHODS, 0.0)
    for _, row in rows:
        for k in METHODS:
            total[k] += row[i][k]
    return {k: v / len(rows) for k, v in total.items()}


def _fig16_summary_render(rows):
    avg, avg_us = _mean(rows, 0), _mean(rows, 1)
    return [
        "Figure 16 summary: average intra-process time overhead (paper: "
        "ScalaTrace 51.05%, ScalaTrace2 9.1%, Cypress 1.58%) and time per "
        "traced event",
    ] + [f"  {k:12s} {v:8.1f}%  {avg_us[k]:6.2f} us/event"
         for k, v in avg.items()]


def _fig16_summary_check(rows):
    # CYPRESS must be the cheapest by a clear factor.  (Our ScalaTrace-2
    # reimplementation pays more per event than ScalaTrace-1 on the
    # *regular* codes — elastic shape matching isn't free — so the
    # paper's ST2 < ST ordering only reproduces on the complex patterns;
    # see EXPERIMENTS.md.)
    avg = _mean(rows, 0)
    assert avg["cypress"] < avg["scalatrace"]
    assert avg["cypress"] < avg["scalatrace2"]
    assert avg["cypress"] * 2 < avg["scalatrace"]


def _inter(name: str, nprocs: int):
    """Merge seconds per method, and the untraced run's seconds."""
    m = measurement(name, nprocs)
    return {k: m.methods[k].inter_seconds for k in METHODS}, m.base_seconds


def _fig18_render(name: str):
    def render(rows):
        widths = [6, 14, 14, 14]
        return [
            f"Figure 18 ({name.upper()}): inter-process merge time (s), "
            f"scale={SCALE}",
            fmt_row(["procs", *METHODS], widths),
        ] + [
            fmt_row([nprocs] + [f"{secs[k]:.4f}" for k in METHODS], widths)
            for nprocs, (secs, _) in rows
        ]
    return render


def _fig18_check(name: str):
    # Strictness is calibrated to how much alignment work the kernel
    # leaves ScalaTrace.  MG (nested tori) and SP (varied parameters) are
    # the paper's headline cases: ScalaTrace's O(n^2) alignment must lose
    # outright.  BT/CG/LU fold to small per-rank queues, so the
    # separation has little to chew on and Python constant factors
    # dominate; there the bound is parity with slack.
    def check(rows):
        for nprocs, (secs, _) in rows:
            if name in ("mg", "sp"):
                assert secs["cypress"] < secs["scalatrace"], f"{name}@{nprocs}"
            else:
                assert secs["cypress"] < secs["scalatrace"] * 2 + 1.0, (
                    f"{name}@{nprocs}")
    return check


def _fig18_pct(rows) -> dict[str, float]:
    """Each method's summed merge time as a % of the summed run time."""
    total = dict.fromkeys(METHODS, 0.0)
    base = 0.0
    for _, (secs, base_seconds) in rows:
        for k in METHODS:
            total[k] += secs[k]
        base += base_seconds
    return {k: 100.0 * v / base for k, v in total.items()}


def _fig18_summary_render(rows):
    return [
        "Figure 18 summary: inter-process overhead as % of execution time "
        "(paper: ScalaTrace 170.69%, ScalaTrace2 30.3%, Cypress 3.29%)",
    ] + [f"  {k:12s} {v:8.1f}%" for k, v in _fig18_pct(rows).items()]


def _fig18_summary_check(rows):
    pct = _fig18_pct(rows)
    assert pct["cypress"] < pct["scalatrace"]


# ---------------------------------------------------------------------------
# Communication patterns: Fig. 17 (MG, SP) and Fig. 20 (LESlie3d).

FIG17_PROCS = 64 if FULL else 16


def _matrix(name: str):
    def row(nprocs):
        w = get(name)
        run = run_cypress(w.source, nprocs, defines=w.defines(nprocs, SCALE))
        return communication_matrix(run.merge(), nprocs)
    return row


def _heatmap(title: str):
    def render(rows):
        ((nprocs, matrix),) = rows
        return [f"{title} ({nprocs} procs), total {matrix.sum() // 1024} KB",
                ascii_heatmap(matrix)]
    return render


def _fig17a_check(rows):
    ((nprocs, matrix),) = rows
    # Nested torus: rank 0 has both unit-stride and long-stride partners.
    partners0 = set(np.nonzero(matrix[0])[0].tolist())
    assert any(p <= 2 for p in partners0)
    assert any(p >= nprocs // 4 for p in partners0)
    # Irregularity: not all ranks have the same number of partners.
    degree = (matrix > 0).sum(axis=1)
    assert degree.min() < degree.max()


def _fig17b_check(rows):
    ((nprocs, matrix),) = rows
    p = math.isqrt(nprocs)
    # Multi-partition: rank 0 sends along its row (+1), column (+p) and
    # the wrapped diagonal (+p+1).
    assert matrix[0, 1] > 0
    assert matrix[0, p] > 0
    assert matrix[0, p + 1] > 0
    # Non-uniform volumes (varied message sizes per rank position).
    nonzero = matrix[matrix > 0]
    assert nonzero.min() < nonzero.max()


def _fig20_row(nprocs):
    w = get("leslie3d")
    merged = run_cypress(
        w.source, nprocs, defines=w.defines(nprocs, SCALE)).merge()
    return communication_matrix(merged, nprocs), sorted(message_sizes(merged))


def _fig20_render(rows):
    ((nprocs, (matrix, sizes)),) = rows
    return [
        f"Figure 20: LESlie3d communication pattern ({nprocs} procs)",
        ascii_heatmap(matrix),
        f"rank 0 partners: {neighbor_sets(matrix)[0]}",
        f"message sizes:   {sizes}",
    ]


def _fig20_check(rows):
    # Paper §VII-D1: "the process 0 only communicates with the processes
    # of 1, 2 and 8.  There are only two types of message sizes, 43KB and
    # 83KB."  Both facts are asserted verbatim.
    ((nprocs, (matrix, sizes)),) = rows
    neighbors = neighbor_sets(matrix)
    if nprocs == 32:
        assert neighbors[0] == [1, 2, 8]
    # Every rank talks to at most 6 partners (3D stencil).
    assert max(len(v) for v in neighbors.values()) <= 6
    assert sizes == [43 * 1024, 83 * 1024]
    # Band structure: all traffic on short diagonals.
    src, dst = np.nonzero(matrix)
    assert (np.abs(src - dst) <= nprocs // 4).all()


# ---------------------------------------------------------------------------
# Fig. 21: SIM-MPI prediction of LESlie3d from the decompressed traces.

FIG21_PROCS = (32, 64, 128, 256, 512) if FULL else (8, 16, 32, 64)


@cache
def _loggp():
    return fit_loggp(reps=3)


def _predict(nprocs):
    """Measured time, predicted time and the predicted communication
    fraction.  The replay is per rank: SIM-MPI needs each rank's own
    computation times, which the merged trace averages across grouped
    ranks (fine for volume and patterns, too coarse for timing a
    position-dependent stencil)."""
    params = _loggp()
    w = get("leslie3d")
    run = run_cypress(w.source, nprocs, defines=w.defines(nprocs, SCALE))
    traces = {r: decompress_rank(run.compressor.ctt(r)) for r in range(nprocs)}
    sim = predict(traces, params)
    return run.run_result.elapsed, sim.elapsed, sim.comm_fraction()


def _errors(rows) -> list[float]:
    return [100.0 * abs(predicted - measured) / measured
            for _, (measured, predicted, _) in rows]


def _fig21_render(rows):
    params = _loggp()
    widths = [6, 14, 14, 10, 10]
    errors = _errors(rows)
    return [
        f"Figure 21: LESlie3d measured vs predicted time (us), scale={SCALE}",
        f"LogGP fit: L={params.L:.2f}us o={params.o:.2f}us "
        f"G={params.G * 1e3:.3f}ns/B",
        fmt_row(["procs", "measured", "predicted", "err%", "comm%"], widths),
    ] + [
        fmt_row([nprocs, f"{measured:.0f}", f"{predicted:.0f}",
                 f"{err:.1f}", f"{comm * 100:.1f}"], widths)
        for (nprocs, (measured, predicted, comm)), err in zip(rows, errors)
    ] + [
        f"average prediction error: {sum(errors) / len(errors):.1f}%  "
        "(paper: 5.9%)"
    ]


def _fig21_check(rows):
    # The LogGP fit against the piecewise machine carries honest model
    # error, so the bound is looser than the paper's 5.9%.
    errors = _errors(rows)
    avg_err = sum(errors) / len(errors)
    assert avg_err < 15.0, f"average prediction error {avg_err:.1f}%"
    # Communication fraction grows with the number of processes.
    assert rows[-1][1][2] > rows[0][1][2]


# ---------------------------------------------------------------------------
# Table I: compilation overhead of the static pass.

REPEATS = 20


def _best_compile(source: str, cypress: bool) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        compile_minimpi(source, cypress=cypress)
        best = min(best, time.perf_counter() - t0)
    return best


def _compile_times(name: str) -> tuple[float, float]:
    """Best-of-N compile time without and with the CYPRESS pass."""
    source = get(name).source
    return _best_compile(source, False), _best_compile(source, True)


def _overheads(rows) -> list[float]:
    return [100.0 * (t1 - t0) / t0 for _, (t0, t1) in rows]


def _table1_render(rows):
    widths = [6, 14, 14, 12]
    pcts = _overheads(rows)
    return [
        "Table I: compilation overhead of CYPRESS (ms; paper reports "
        "seconds for a full LLVM build)",
        fmt_row(["prog", "w/o CYPRESS", "w/ CYPRESS", "overhead%"], widths),
    ] + [
        fmt_row([name, f"{t0 * 1000:.3f}", f"{t1 * 1000:.3f}", f"{pct:.1f}"],
                widths)
        for (name, (t0, t1)), pct in zip(rows, pcts)
    ] + [f"average overhead: {sum(pcts) / len(pcts):.1f}%  (paper: 8.27%)"]


def _table1_check(rows):
    # The pass itself is cheap in absolute terms (paper: <= 0.25 s)...
    for name, (t0, t1) in rows:
        assert t1 - t0 < 1.0, name
    # ...and not a multiple of the baseline compile (the MiniMPI compile
    # is far cheaper than a real compiler's, which inflates the ratio).
    pcts = _overheads(rows)
    assert sum(pcts) / len(pcts) < 150.0


# ---------------------------------------------------------------------------
# Ablations of the design choices DESIGN.md calls out.


def _merged(name: str, nprocs: int, config: CypressConfig):
    w = get(name)
    compiled = compile_minimpi(w.source)
    comp = IntraProcessCompressor(compiled.cst, config=config)
    run_compiled(compiled, nprocs, defines=w.defines(nprocs, SCALE), tracer=comp)
    return merge_all([comp.ctt(r) for r in range(nprocs)])


WINDOW_PROCS = procs_for("mg")[0]


def _window_row(window):
    """Leaf matching window (paper §IV-A: "a larger sliding window ...
    trade-off between cost and compression effectiveness") on MG, whose
    per-level cycling message sizes make the difference show."""
    merged = _merged("mg", WINDOW_PROCS, CypressConfig(window=window))
    records = sum(len(g.records) for v in merged.vertices()
                  for g in v.groups if g.records)
    return len(dumps(merged)), records, merged.group_count()


def _window_render(rows):
    widths = [10, 12, 10, 10]
    return [
        f"Ablation: leaf matching window (MG, {WINDOW_PROCS} procs)",
        fmt_row(["window", "bytes", "records", "groups"], widths),
    ] + [
        fmt_row(["unbounded" if window is None else str(window),
                 nbytes, records, groups], widths)
        for window, (nbytes, records, groups) in rows
    ]


def _window_check(rows):
    sizes = {w: nbytes for w, (nbytes, _, _) in rows}
    records = {w: n for w, (_, n, _) in rows}
    # Larger windows help on cyclic-parameter codes; the unbounded keyed
    # merge is the best.  What the window controls is how many records a
    # leaf keeps; container v8 writes an unmerged record in a few bytes
    # (delta rows, one-value stats blocks), so the bytes follow the
    # records only weakly.
    assert sizes[None] < sizes[2] <= sizes[1]
    assert records[None] < records[1] / 2


TIMING_PROCS = procs_for("lu")[0]


def _timing_render(rows):
    sizes = dict(rows)
    return [
        f"Ablation: timing mode (LU, {TIMING_PROCS} procs)",
        f"  mean+std : {sizes['meanstd']} bytes",
        f"  histogram: {sizes['hist']} bytes "
        f"(+{100 * (sizes['hist'] / sizes['meanstd'] - 1):.0f}%)",
    ]


def _timing_check(rows):
    # The richer distribution (paper §IV-A supports both) costs bytes,
    # boundedly.
    sizes = dict(rows)
    assert sizes["hist"] > sizes["meanstd"]
    assert sizes["hist"] < sizes["meanstd"] * 3


RANKS_PROCS = procs_for("leslie3d")[1]


def _ranks_row(relative):
    merged = _merged("leslie3d", RANKS_PROCS,
                     CypressConfig(relative_ranks=relative))
    return len(dumps(merged)), merged.group_count()


def _ranks_render(rows):
    r = dict(rows)
    return [
        f"Ablation: rank encoding (LESlie3d, {RANKS_PROCS} procs)",
        f"  relative: {r[True][0]} bytes, {r[True][1]} groups",
        f"  absolute: {r[False][0]} bytes, {r[False][1]} groups",
    ]


def _ranks_check(rows):
    # Relative ranks (paper §IV-B) let ranks with rank-relative peers
    # group: fewer groups, fewer bytes.
    r = dict(rows)
    assert r[True][1] < r[False][1]
    assert r[True][0] < r[False][0]


class _MarkerOnlySink(TraceSink):
    wants_markers = True


def _markers_row(nprocs):
    """The untraced run, the instrumentation alone (the
    PMPI_COMM_Structure bracketing, paper Fig. 9, into a sink that drops
    it), and the full compressor."""
    w = get("mg")
    defines = w.defines(nprocs, SCALE)
    compiled = compile_minimpi(w.source)
    t0 = time.perf_counter()
    run_compiled(compiled, nprocs, defines=defines, tracer=TraceSink())
    base = time.perf_counter() - t0
    markers = TimingSink(_MarkerOnlySink())
    run_compiled(compiled, nprocs, defines=defines, tracer=markers)
    full = TimingSink(IntraProcessCompressor(compiled.cst))
    run_compiled(compiled, nprocs, defines=defines, tracer=full)
    return base, markers.elapsed, full.elapsed


def _markers_render(rows):
    ((nprocs, (base, markers, full)),) = rows
    return [
        f"Ablation: instrumentation cost alone (MG, {nprocs} procs)",
        f"  untraced run        : {base:.3f}s",
        f"  markers only        : {markers:.3f}s sink time",
        f"  markers + compress  : {full:.3f}s sink time",
    ]


def _markers_check(rows):
    ((_, (_, markers, full)),) = rows
    assert markers < full  # compression costs more than bracketing


# ---------------------------------------------------------------------------
# The table.

EXPERIMENTS: tuple[Experiment, ...] = (
    *(Experiment(
        f"fig15_{name}", procs_for(name), _sizes(name, FIG15_SERIES),
        _size_table(f"Figure 15 ({name.upper()}): total trace size in KB, "
                    f"scale={SCALE}", FIG15_SERIES, FIG15_SERIES, 17),
        _fig15_check(name),
    ) for name in NPB),
    *(Experiment(
        f"fig16_{name}", procs_for(name), lambda p, n=name: _intra(n, p),
        _fig16_render(name), _fig16_check(name),
    ) for name in FIG16),
    Experiment(
        "fig16_summary",
        tuple((name, p) for name in FIG16 for p in procs_for(name)),
        lambda point: _intra(*point),
        _fig16_summary_render, _fig16_summary_check,
    ),
    Experiment("fig17a_mg", (FIG17_PROCS,), _matrix("mg"),
               _heatmap("Figure 17a: MG communication pattern"),
               _fig17a_check),
    Experiment("fig17b_sp", (FIG17_PROCS,), _matrix("sp"),
               _heatmap("Figure 17b: SP communication pattern"),
               _fig17b_check),
    *(Experiment(
        f"fig18_{name}", procs_for(name), lambda p, n=name: _inter(n, p),
        _fig18_render(name), _fig18_check(name),
    ) for name in FIG18),
    Experiment(
        "fig18_summary",
        tuple((name, p) for name in FIG18 for p in procs_for(name)),
        lambda point: _inter(*point),
        _fig18_summary_render, _fig18_summary_check,
    ),
    Experiment(
        "fig19", procs_for("leslie3d"), _sizes("leslie3d", FIG19_SERIES),
        _size_table(f"Figure 19: LESlie3d compressed trace size (KB), "
                    f"scale={SCALE}", ("Gzip", "ScalaTrace", "Cypress"),
                    FIG19_SERIES, 14),
        _fig19_check,
    ),
    *(Experiment(f"fig20_{nprocs}", (nprocs,), _fig20_row, _fig20_render,
                 _fig20_check) for nprocs in (32, 64)),
    Experiment("fig21", FIG21_PROCS, _predict, _fig21_render, _fig21_check),
    Experiment("table1", NPB, _compile_times, _table1_render, _table1_check),
    Experiment("ablation_window", (1, 2, 8, None), _window_row,
               _window_render, _window_check),
    Experiment(
        "ablation_timing", ("meanstd", "hist"),
        lambda mode: len(dumps(_merged(
            "lu", TIMING_PROCS, CypressConfig(timing_mode=mode)))),
        _timing_render, _timing_check,
    ),
    Experiment("ablation_ranks", (True, False), _ranks_row, _ranks_render,
               _ranks_check),
    Experiment("ablation_markers", (procs_for("mg")[0],), _markers_row,
               _markers_render, _markers_check),
)


def main() -> int:
    """Rewrite every table under ``results/``; exit 1 if a check fails."""
    failed = []
    for exp in EXPERIMENTS:
        try:
            run(exp, RESULTS)
        except AssertionError as err:
            failed.append(exp.name)
            print(f"FAIL {exp.name}: {err}", file=sys.stderr)
    print(f"\n{len(EXPERIMENTS) - len(failed)}/{len(EXPERIMENTS)} "
          f"experiments passed their checks")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
