"""High-level CYPRESS pipeline: compile → trace → compress → merge → save.

The one-call entry points the examples and benchmarks use::

    run = run_cypress(source, nprocs=64, defines={"steps": 20})
    merged = run.merge()
    nbytes = run.save("trace.cyp", gzip=True)
    events = run.replay(rank=0)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import time

from repro import obs
from repro.driver import run_compiled
from repro.mpisim.netmodel import NetworkModel
from repro.mpisim.pmpi import MultiSink, StreamCaptureSink, TimingSink, TraceSink
from repro.mpisim.runtime import RunResult
from repro.static.instrument import CompiledProgram, compile_minimpi

from . import serialize
from .decompress import ReplayEvent, decompress_merged_rank, decompress_rank
from .errors import MergeError
from .inter import MergedCTT
from .intra import CypressConfig, IntraProcessCompressor, compress_streams
from .quarantine import QuarantineReport


class MergedRunMixin:
    """``merge`` / ``trace_bytes`` / ``save`` for a run object holding
    ``compressor``, ``nprocs`` and a ``_merged`` cache — shared by
    :class:`CypressRun` and :class:`repro.frontend.runner.PythonRun`."""

    @property
    def quarantine(self) -> QuarantineReport:
        """Ranks excluded from compression (docs/INTERNALS.md §7).
        Empty on a healthy run."""
        return self.compressor.quarantine

    def merge(self, schedule: str = "tree") -> MergedCTT:
        """Inter-process merge (cached): ``compressor.merged()`` over the
        healthy ranks.  Quarantined ranks are left out — the merge
        covers the survivors (their bytes are unaffected by the
        victims).

        ``schedule`` is accepted and ignored: there is one merge, and
        only ``benchmarks/e2e`` still passes the name."""
        if self._merged is None:
            bad = self.quarantine.rank_set()
            healthy = [r for r in range(self.nprocs) if r not in bad]
            if not healthy:
                raise MergeError(
                    "every rank was quarantined — nothing to merge "
                    f"({self.quarantine.summary()})"
                )
            self._merged = self.compressor.merged(
                nranks=self.nprocs, ranks=healthy
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
        """Reconstruct ``rank``'s event sequence.  A quarantined rank has
        no compressed form, so it replays from its retained raw capture
        instead (exact events, recorded rather than aggregated timing)."""
        item = self.quarantine.get(rank)
        if item is not None:
            if item.raw_stream is None:
                raise MergeError(
                    f"rank {rank} was quarantined ({item.error}) and its "
                    "raw stream was not retained"
                )
            return _replay_raw(item.raw_events())
        if merged:
            return decompress_merged_rank(self.merge(), rank)
        return decompress_rank(self.compressor.ctt(rank))


def _replay_raw(events) -> list[ReplayEvent]:
    """Raw-capture fallback replay for quarantined ranks: each traced
    CommEvent maps 1:1 to a ReplayEvent (its own duration and gap stand
    in for the group statistics a compressed replay would carry)."""
    out: list[ReplayEvent] = []
    prev_end = 0.0
    for ev in events:
        out.append(
            ReplayEvent(
                op=ev.op, peer=ev.peer, peer2=ev.peer2,
                tag=ev.tag, tag2=ev.tag2,
                nbytes=ev.nbytes, nbytes2=ev.nbytes2,
                comm=ev.comm, root=ev.root, wildcard=ev.wildcard,
                req_gids=tuple(ev.req_gids),
                mean_duration=ev.duration,
                mean_gap=max(0.0, ev.time_start - prev_end),
                result_comm=ev.result_comm,
            )
        )
        prev_end = ev.time_start + ev.duration
    return out


def run_cypress(
    source: str | CompiledProgram,
    nprocs: int,
    defines: dict[str, int] | None = None,
    config: CypressConfig | None = None,
    measure_overhead: bool = False,
    extra_sinks: list[TraceSink] | None = None,
    network: NetworkModel | None = None,
    *,
    strict: bool = False,
    fault_plan=None,
) -> CypressRun:
    """Compile (if needed) and execute a MiniMPI program with the CYPRESS
    tracer attached; returns the per-rank compressed traces.

    ``measure_overhead=True`` wraps the compressor in a
    :class:`~repro.mpisim.pmpi.TimingSink` so ``intra_seconds`` reports the
    CPU time spent compressing (Fig. 16's numerator).  The compressor
    buffers callbacks and ingests them in batches; the runtime flushes
    it when the last rank finishes, so the returned run holds no
    buffered items and ``intra_seconds`` includes the last drain.

    The compressor is told the job's ranks, so under
    ``config.memory_budget_bytes`` a rank folds into the partial merged
    tree when it finalizes (docs/INTERNALS.md §14); ``run.merge()`` is
    the same bytes with or without the budget.

    Fault tolerance (docs/INTERNALS.md §7): ``fault_plan`` injects
    seeded stream corruption for tests and the CI fault-smoke job.
    Corruption needs captured streams, so a plan with ``corrupt_ranks``
    traces into a :class:`~repro.mpisim.pmpi.StreamCaptureSink` and
    compresses afterwards (:func:`compress_streams`), where in the
    default lenient mode (``strict=False``) a rank whose stream
    mismatches the CST is quarantined instead of aborting the run —
    inspect ``run.quarantine``.
    """
    corrupt = fault_plan is not None and bool(fault_plan.corrupt_ranks)
    registry = obs.active()
    compiled = (
        source if isinstance(source, CompiledProgram) else compile_minimpi(source)
    )
    if compiled.static is None:
        raise ValueError("program must be compiled with cypress=True")
    timing: TimingSink | None = None
    if corrupt:
        capture = StreamCaptureSink()
        sink: TraceSink = capture
    else:
        compressor = IntraProcessCompressor(compiled.cst, config=config)
        compressor.enable_incremental_fold(nranks=nprocs, domain=range(nprocs))
        sink = compressor
        if measure_overhead or registry is not None:
            # With observability on, the inline compression time becomes
            # the "intra.compress" stage attribution; TimingSink's
            # per-callback clock reads are part of the metrics-on cost
            # of *live* tracing (compress_streams stays untouched — the
            # bench overhead guard measures that path).
            timing = TimingSink(compressor)
            sink = timing
    if extra_sinks:
        sink = MultiSink([sink, *extra_sinks])
    t_run = time.perf_counter()
    with obs.span("trace.run"):
        result = run_compiled(
            compiled, nprocs, defines=defines, tracer=sink, network=network
        )
    run_seconds = time.perf_counter() - t_run
    intra_seconds = (
        timing.elapsed if timing is not None and measure_overhead else None
    )
    if corrupt:
        from repro.faults import corrupt_streams

        with obs.span("intra.compress"):
            compressor = compress_streams(
                compiled.cst, corrupt_streams(capture.streams, fault_plan),
                config=config, strict=strict, nranks=nprocs,
            )
    if registry is not None:
        if timing is not None:
            registry.attribute_span("intra.compress", timing.elapsed)
        compressor.publish_metrics(registry)
        registry.counter_add("trace.total_events", result.total_events)
        if run_seconds > 0:
            registry.gauge_set(
                "trace.events_per_s", result.total_events / run_seconds
            )
    return CypressRun(
        compiled=compiled,
        nprocs=nprocs,
        compressor=compressor,
        run_result=result,
        intra_seconds=intra_seconds,
    )
