"""High-level CYPRESS pipeline: compile → trace → compress → merge → save.

The one-call entry points the examples and benchmarks use::

    run = run_cypress(source, nprocs=64, defines={"steps": 20})
    merged = run.merge()
    nbytes = run.save("trace.cyp", gzip=True)
    events = run.replay(rank=0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import time

from repro import obs
from repro.driver import run_compiled
from repro.mpisim.netmodel import NetworkModel
from repro.mpisim.pmpi import MultiSink, TimingSink, TraceSink
from repro.mpisim.runtime import RunResult
from repro.static.instrument import CompiledProgram, compile_minimpi

from . import serialize
from .decompress import ReplayEvent, decompress_merged_rank, decompress_rank
from .inter import MergedCTT
from .intra import CypressConfig, IntraProcessCompressor


class MergedRunMixin:
    """``merge`` / ``trace_bytes`` / ``save`` for a run object holding
    ``compressor``, ``nprocs`` and a ``_merged`` cache — shared by
    :class:`CypressRun` and :class:`repro.frontend.runner.PythonRun`."""

    def merge(self, schedule: str = "tree") -> MergedCTT:
        """Inter-process merge (cached): ``compressor.merged()`` over
        every rank.

        ``schedule`` is accepted and ignored: there is one merge, and
        only ``benchmarks/e2e`` still passes the name."""
        if self._merged is None:
            self._merged = self.compressor.merged(
                nranks=self.nprocs, ranks=range(self.nprocs)
            )
        return self._merged

    def trace_bytes(self, gzip: bool = False) -> int:
        return len(serialize.dumps(self.merge(), gzip=gzip))

    def save(self, path: str, gzip: bool = False) -> int:
        return serialize.save(self.merge(), path, gzip=gzip)


@dataclass
class CypressRun(MergedRunMixin):
    """Everything produced by one traced execution."""

    compiled: CompiledProgram
    nprocs: int
    compressor: IntraProcessCompressor
    run_result: RunResult
    intra_seconds: float | None = None  # compression CPU time (if measured)
    _merged: MergedCTT | None = field(default=None, repr=False)

    def replay(self, rank: int, merged: bool = True) -> list[ReplayEvent]:
        """Reconstruct ``rank``'s event sequence."""
        if merged:
            return decompress_merged_rank(self.merge(), rank)
        return decompress_rank(self.compressor.ctt(rank))


def run_cypress(
    source: str | CompiledProgram,
    nprocs: int,
    defines: dict[str, int] | None = None,
    config: CypressConfig | None = None,
    measure_overhead: bool = False,
    extra_sinks: list[TraceSink] | None = None,
    network: NetworkModel | None = None,
) -> CypressRun:
    """Compile (if needed) and execute a MiniMPI program with the CYPRESS
    tracer attached; returns the per-rank compressed traces.

    ``measure_overhead=True`` wraps the compressor in a
    :class:`~repro.mpisim.pmpi.TimingSink` so ``intra_seconds`` reports the
    CPU time spent compressing (Fig. 16's numerator).  The compressor
    buffers items and ingests them in batches; the runtime flushes
    it when the last rank finishes, so the returned run holds no
    buffered items and ``intra_seconds`` includes the last drain.

    The compressor is told the job's ranks, so under
    ``config.memory_budget_bytes`` a rank folds into the partial merged
    tree when it finalizes (docs/INTERNALS.md §14); ``run.merge()`` is
    the same bytes with or without the budget.

    The trace is compressed live, so a CST/stream mismatch raises
    :class:`~repro.core.errors.StreamMismatchError`; only a capture
    compressed afterwards (:func:`~repro.core.intra.compress_streams`)
    quarantines a rank (docs/INTERNALS.md §7).
    """
    compiled = (
        source if isinstance(source, CompiledProgram) else compile_minimpi(source)
    )
    if compiled.static is None:
        raise ValueError("program must be compiled with cypress=True")
    compressor, result, intra_seconds = trace_live(
        compiled.cst, nprocs,
        lambda sink: run_compiled(
            compiled, nprocs, defines=defines, tracer=sink, network=network
        ),
        config=config, extra_sinks=extra_sinks,
        measure_overhead=measure_overhead,
    )
    return CypressRun(
        compiled=compiled,
        nprocs=nprocs,
        compressor=compressor,
        run_result=result,
        intra_seconds=intra_seconds,
    )


def trace_live(
    cst, nprocs: int, run: Callable[[TraceSink], RunResult], *,
    config: CypressConfig | None = None,
    extra_sinks: list[TraceSink] | None = None,
    measure_overhead: bool = False,
) -> tuple[IntraProcessCompressor, RunResult, float | None]:
    """The set-up :func:`run_cypress` and ``run_python`` share: a live
    compressor told the job's ranks, the sinks around it, ``run(sink)``
    in the ``trace.run`` span, the metrics.  Returns the compressor, the
    run result and the compressor's seconds (``measure_overhead``)."""
    registry = obs.active()
    compressor = IntraProcessCompressor(cst, config=config)
    compressor.enable_incremental_fold(nranks=nprocs, domain=range(nprocs))
    sink: TraceSink = compressor
    timing: TimingSink | None = None
    if measure_overhead or registry is not None:
        # With observability on, the inline compression time becomes
        # the "intra.compress" stage attribution; TimingSink's
        # per-item clock reads are part of the metrics-on cost of
        # live tracing (compress_streams stays untouched — the bench
        # overhead guard measures that path).
        timing = sink = TimingSink(compressor)
    if extra_sinks:
        sink = MultiSink([sink, *extra_sinks])
    t_run = time.perf_counter()
    with obs.span("trace.run"):
        result = run(sink)
    run_seconds = time.perf_counter() - t_run
    if registry is not None:
        registry.attribute_span("intra.compress", timing.elapsed)
        compressor.publish_metrics(registry)
        registry.counter_add("trace.total_events", result.total_events)
        if run_seconds > 0:
            registry.gauge_set(
                "trace.events_per_s", result.total_events / run_seconds
            )
    intra_seconds = timing.elapsed if measure_overhead else None
    return compressor, result, intra_seconds
