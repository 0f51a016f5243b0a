"""Ablation benches for the design choices DESIGN.md calls out.

* **Leaf matching window** (paper §IV-A: "Potentially one can set a
  larger sliding window ... trade-off between cost and compression
  effectiveness"): unbounded keyed merge (repo default) vs window=1 (the
  paper's implementation) vs intermediate windows, on MG whose per-level
  cycling message sizes make the difference dramatic.
* **Timing mode**: mean+std vs histogram — size cost of the richer
  distribution (paper supports both, §IV-A).
* **Relative vs absolute rank encoding** (paper §IV-B): effect on the
  inter-process group count and merged size.
* **Merge depth**: the paper's binary reduction tree (§IV-B: O(n log P)
  parallel merge) against a sequential fold, as depth arithmetic next
  to the one merge this harness has.
"""

import time

from repro.core.inter import merge_all
from repro.core.intra import CypressConfig, IntraProcessCompressor
from repro.core.serialize import dumps
from repro.driver import run_compiled
from repro.static.instrument import compile_minimpi
from repro.workloads import get

from .common import SCALE, emit, fmt_row, procs_for


def _compress(name, nprocs, config=None):
    w = get(name)
    compiled = compile_minimpi(w.source)
    comp = IntraProcessCompressor(compiled.cst, config=config)
    run_compiled(compiled, nprocs, defines=w.defines(nprocs, SCALE), tracer=comp)
    return comp


class TestWindowAblation:
    def test_window_sweep_on_mg(self, benchmark):
        nprocs = procs_for("mg")[0]

        def build():
            rows = []
            for window in (1, 2, 8, None):
                comp = _compress(
                    "mg", nprocs, CypressConfig(window=window)
                )
                merged = merge_all([comp.ctt(r) for r in range(nprocs)])
                records = sum(
                    len(g.records) for v in merged.vertices()
                    for g in v.groups.values() if g.records
                )
                rows.append((window, len(dumps(merged)), records,
                             merged.group_count()))
            return rows

        rows = benchmark.pedantic(build, rounds=1, iterations=1)
        widths = [10, 12, 10, 10]
        lines = [
            f"Ablation: leaf matching window (MG, {nprocs} procs)",
            fmt_row(["window", "bytes", "records", "groups"], widths),
        ]
        for window, nbytes, records, groups in rows:
            label = "unbounded" if window is None else str(window)
            lines.append(fmt_row([label, nbytes, records, groups], widths))
        emit("ablation_window", lines)

        sizes = {w: b for w, b, _, _ in rows}
        records = {w: r for w, _, r, _ in rows}
        # Larger windows strictly help on cyclic-parameter codes; the
        # unbounded keyed merge is the best.  What the window controls is
        # how many records a leaf keeps; since container v7 writes a
        # leaf's records over one stats table, as delta rows or columns,
        # an unmerged record costs a few bytes, not ninety, so the bytes
        # follow the records at a smaller factor (3.7x under v6).
        assert sizes[None] < sizes[2] <= sizes[1]
        assert records[None] < records[1] / 2
        assert sizes[None] < sizes[1] * 0.6


class TestTimingModeAblation:
    def test_histogram_costs_more(self, benchmark):
        nprocs = procs_for("lu")[0]

        def build():
            out = {}
            for mode in ("meanstd", "hist"):
                comp = _compress(
                    "lu", nprocs, CypressConfig(timing_mode=mode)
                )
                merged = merge_all([comp.ctt(r) for r in range(nprocs)])
                out[mode] = len(dumps(merged))
            return out

        sizes = benchmark.pedantic(build, rounds=1, iterations=1)
        emit(
            "ablation_timing",
            [
                f"Ablation: timing mode (LU, {nprocs} procs)",
                f"  mean+std : {sizes['meanstd']} bytes",
                f"  histogram: {sizes['hist']} bytes "
                f"(+{100 * (sizes['hist'] / sizes['meanstd'] - 1):.0f}%)",
            ],
        )
        assert sizes["hist"] > sizes["meanstd"]
        assert sizes["hist"] < sizes["meanstd"] * 3  # still bounded


class TestRankEncodingAblation:
    def test_relative_ranks_enable_grouping(self, benchmark):
        nprocs = procs_for("leslie3d")[1]

        def build():
            out = {}
            for relative in (True, False):
                comp = _compress(
                    "leslie3d", nprocs,
                    CypressConfig(relative_ranks=relative),
                )
                merged = merge_all([comp.ctt(r) for r in range(nprocs)])
                out[relative] = (len(dumps(merged)), merged.group_count())
            return out

        result = benchmark.pedantic(build, rounds=1, iterations=1)
        emit(
            "ablation_ranks",
            [
                f"Ablation: rank encoding (LESlie3d, {nprocs} procs)",
                f"  relative: {result[True][0]} bytes, "
                f"{result[True][1]} groups",
                f"  absolute: {result[False][0]} bytes, "
                f"{result[False][1]} groups",
            ],
        )
        assert result[True][1] < result[False][1]
        assert result[True][0] < result[False][0]


class TestMarkerOverheadAblation:
    def test_marker_cost_alone(self, benchmark):
        """How much of CYPRESS's runtime overhead is the instrumentation
        itself (the PMPI_COMM_Structure bracketing, paper Fig. 9) versus
        the record compression?  Compares: untraced run, markers-into-a-
        null-consumer, and the full compressor."""
        from repro.driver import run_compiled
        from repro.mpisim.pmpi import NullSink, TimingSink, TraceSink
        from repro.static.instrument import compile_minimpi
        from repro.workloads import get

        class MarkerOnlySink(TraceSink):
            wants_markers = True

        w = get("mg")
        nprocs = procs_for("mg")[0]
        defines = w.defines(nprocs, SCALE)
        compiled = compile_minimpi(w.source)

        def run_all():
            t0 = time.perf_counter()
            run_compiled(compiled, nprocs, defines=defines, tracer=NullSink())
            base = time.perf_counter() - t0
            markers = TimingSink(MarkerOnlySink())
            run_compiled(compiled, nprocs, defines=defines, tracer=markers)
            full = TimingSink(IntraProcessCompressor(compiled.cst))
            run_compiled(compiled, nprocs, defines=defines, tracer=full)
            return base, markers.elapsed, full.elapsed

        base, markers, full = benchmark.pedantic(run_all, rounds=1, iterations=1)
        emit(
            "ablation_markers",
            [
                f"Ablation: instrumentation cost alone (MG, {nprocs} procs)",
                f"  untraced run        : {base:.3f}s",
                f"  markers only        : {markers:.3f}s sink time",
                f"  markers + compress  : {full:.3f}s sink time",
            ],
        )
        assert markers < full  # compression costs more than bracketing


class TestMergeScheduleAblation:
    def test_merge_covers_every_rank(self, benchmark):
        nprocs = procs_for("bt")[0]
        comp = _compress("bt", nprocs)
        ctts = [comp.ctt(r) for r in range(nprocs)]
        merged = benchmark.pedantic(
            lambda: merge_all(ctts), rounds=3, iterations=1
        )
        assert merged.nranks_merged == nprocs

    def test_tree_critical_path_shallower(self, benchmark):
        """The O(n log P) claim is about *parallel* depth: a binary
        reduction needs ceil(log2 P) rounds of concurrent pair merges
        vs P-1 sequential ones.  This single-process harness has one
        merge; we time it and report the two depths beside it."""
        import math

        nprocs = procs_for("cg")[-1]
        comp = _compress("cg", nprocs)
        ctts = [comp.ctt(r) for r in range(nprocs)]

        def run():
            t0 = time.perf_counter()
            merge_all(ctts)
            return time.perf_counter() - t0

        wall = benchmark.pedantic(run, rounds=1, iterations=1)
        depth_tree = math.ceil(math.log2(nprocs))
        depth_fold = nprocs - 1
        emit(
            "ablation_merge_schedule",
            [
                f"Ablation: merge depth (CG, {nprocs} procs)",
                f"  single-pass merge: {wall:.4f}s wall",
                f"  parallel depth, binary reduction: {depth_tree}",
                f"  parallel depth, sequential fold : {depth_fold}",
            ],
        )
        assert depth_tree < depth_fold
