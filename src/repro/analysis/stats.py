"""Trace-size and overhead accounting shared by the benchmark harness.

``measure_all_methods`` runs one workload at one process count with every
tracer attached to a single execution, then reports per-method trace sizes
and compression overheads — the raw material of Figs. 15, 16, 18 and 19.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines.rawtrace import RawTraceSink
from repro.baselines.scalatrace import ScalaTraceCompressor, merge_all_queues
from repro.baselines.scalatrace2 import ScalaTrace2Compressor, merge_all_st2
from repro.core.inter import merge_all
from repro.core.intra import CypressConfig, IntraProcessCompressor
from repro.core.serialize import dumps as cypress_dumps
from repro.driver import run_compiled
from repro.mpisim.pmpi import MultiSink, NullSink, TimingSink
from repro.static.instrument import compile_minimpi
from repro.workloads.base import Workload


@dataclass
class MethodResult:
    """One compression method's outcome on one run."""

    name: str
    trace_bytes: int = 0
    gzip_bytes: int | None = None
    intra_seconds: float = 0.0  # CPU time inside the compressor callbacks
    inter_seconds: float = 0.0  # wall time of the inter-process merge
    memory_bytes: int = 0  # per-process compressor working set (max rank)


@dataclass
class RunMeasurement:
    workload: str
    nprocs: int
    base_seconds: float  # untraced execution wall time (denominator)
    app_events: int
    methods: dict[str, MethodResult] = field(default_factory=dict)

    def overhead_pct(self, method: str, phase: str = "intra") -> float:
        m = self.methods[method]
        sec = m.intra_seconds if phase == "intra" else m.inter_seconds
        return 100.0 * sec / self.base_seconds if self.base_seconds else 0.0


# Nominal per-rank application heap the memory overheads are measured
# against (the simulator has no real application arrays; NPB CLASS D uses
# on the order of 100 MB/rank — we use a conservative 64 MB baseline).
APP_MEMORY_BASELINE = 64 << 20


def measure_all_methods(
    workload: Workload,
    nprocs: int,
    scale: float = 1.0,
    methods: tuple[str, ...] = ("gzip", "scalatrace", "scalatrace2", "cypress"),
    config: CypressConfig | None = None,
) -> RunMeasurement:
    """Execute once per method-set (single run, all sinks attached) and
    collect sizes + overheads."""
    workload.check_procs(nprocs)
    defines = workload.defines(nprocs, scale)

    # Baseline: untraced run (Fig. 16's denominator).
    compiled_plain = compile_minimpi(workload.source, cypress=False)
    t0 = time.perf_counter()
    base_result = run_compiled(compiled_plain, nprocs, defines=defines, tracer=NullSink())
    base_seconds = time.perf_counter() - t0

    sinks = []
    timed: dict[str, TimingSink] = {}
    raw = st = st2 = cyp = None
    if "gzip" in methods:
        raw = RawTraceSink()
        timed["gzip"] = TimingSink(raw)
        sinks.append(timed["gzip"])
    if "scalatrace" in methods:
        st = ScalaTraceCompressor()
        timed["scalatrace"] = TimingSink(st)
        sinks.append(timed["scalatrace"])
    if "scalatrace2" in methods:
        st2 = ScalaTrace2Compressor()
        timed["scalatrace2"] = TimingSink(st2)
        sinks.append(timed["scalatrace2"])
    compiled = compile_minimpi(workload.source)
    if "cypress" in methods:
        cyp = IntraProcessCompressor(compiled.cst, config=config)
        timed["cypress"] = TimingSink(cyp)
        sinks.append(timed["cypress"])

    run_result = run_compiled(compiled, nprocs, defines=defines, tracer=MultiSink(sinks))

    out = RunMeasurement(
        workload=workload.name,
        nprocs=nprocs,
        base_seconds=base_seconds,
        app_events=run_result.total_events,
    )

    if raw is not None:
        m = MethodResult("gzip")
        m.trace_bytes = raw.total_bytes()
        m.gzip_bytes = raw.gzip_bytes()
        m.intra_seconds = timed["gzip"].elapsed
        m.memory_bytes = max(
            (raw.rank_bytes(r) for r in range(nprocs)), default=0
        )
        out.methods["gzip"] = m
    if st is not None:
        from repro.baselines.serialize import scalatrace_dumps

        m = MethodResult("scalatrace")
        m.intra_seconds = timed["scalatrace"].elapsed
        t0 = time.perf_counter()
        merged = merge_all_queues({r: st.queue(r) for r in range(nprocs)})
        m.inter_seconds = time.perf_counter() - t0
        m.trace_bytes = len(scalatrace_dumps(merged))
        m.memory_bytes = max(st.approx_memory(r) for r in range(nprocs))
        out.methods["scalatrace"] = m
    if st2 is not None:
        from repro.baselines.serialize import scalatrace2_dumps

        m = MethodResult("scalatrace2")
        m.intra_seconds = timed["scalatrace2"].elapsed
        t0 = time.perf_counter()
        merged2 = merge_all_st2({r: st2.queue(r) for r in range(nprocs)})
        m.inter_seconds = time.perf_counter() - t0
        data2 = scalatrace2_dumps(merged2)
        m.trace_bytes = len(data2)
        m.gzip_bytes = len(_gzip_compress(data2))
        m.memory_bytes = max(st2.approx_memory(r) for r in range(nprocs))
        out.methods["scalatrace2"] = m
    if cyp is not None:
        m = MethodResult("cypress")
        m.intra_seconds = timed["cypress"].elapsed
        t0 = time.perf_counter()
        merged_c = merge_all([cyp.ctt(r) for r in range(nprocs)])
        m.inter_seconds = time.perf_counter() - t0
        data = cypress_dumps(merged_c)
        m.trace_bytes = len(data)
        m.gzip_bytes = len(_gzip_compress(data))
        m.memory_bytes = max(cyp.serialized_bytes(r) for r in range(nprocs))
        out.methods["cypress"] = m
    return out


def _gzip_compress(data: bytes) -> bytes:
    import gzip

    return gzip.compress(data, 6)
