"""Run annotated Python rank functions under the CYPRESS tracer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import obs
from repro.core.api import MergedRunMixin
from repro.core.decompress import ReplayEvent, decompress_merged_rank
from repro.core.inter import MergedCTT
from repro.core.intra import CypressConfig, IntraProcessCompressor, compress_streams
from repro.mpisim.netmodel import NetworkModel
from repro.mpisim.pmpi import MultiSink, StreamCaptureSink, TraceSink
from repro.mpisim.runtime import Runtime, RunResult

from .structure import BuiltStructure, Spec, build_structure
from .traced import TracedComm

RankFunction = Callable[[TracedComm], Iterator[None]]


@dataclass
class PythonRun(MergedRunMixin):
    """Result of tracing a Python rank function."""

    structure: BuiltStructure
    nprocs: int
    compressor: IntraProcessCompressor
    run_result: RunResult
    _merged: MergedCTT | None = field(default=None, repr=False)

    def replay(self, rank: int) -> list[ReplayEvent]:
        return decompress_merged_rank(self.merge(), rank)


def run_python(
    rank_fn: RankFunction,
    structure: Spec | BuiltStructure,
    nprocs: int,
    config: CypressConfig | None = None,
    extra_sinks: list[TraceSink] | None = None,
    network: NetworkModel | None = None,
    deferred: bool = False,
) -> PythonRun:
    """Execute ``rank_fn`` on every simulated rank with CYPRESS attached.

    ``rank_fn(tc)`` must be a generator function taking a
    :class:`TracedComm`; ``structure`` is the declared communication
    structure (see :class:`repro.frontend.structure.S`).

    ``deferred=True`` traces the run into a stream capture and
    compresses it afterwards, byte-identical to inline compression.
    """
    registry = obs.active()
    built = (
        structure
        if isinstance(structure, BuiltStructure)
        else build_structure(structure)
    )
    capture: StreamCaptureSink | None = None
    if deferred:
        capture = StreamCaptureSink()
        sink: TraceSink = capture
    else:
        compressor = IntraProcessCompressor(built.cst, config=config)
        sink = compressor
    if extra_sinks:
        sink = MultiSink([sink, *extra_sinks])
    runtime = Runtime(nprocs, network=network, tracer=sink)

    def rank_main(comm):
        return rank_fn(TracedComm(comm, built))

    with obs.span("trace.run"):
        result = runtime.run(rank_main)
    if capture is not None:
        with obs.span("intra.compress"):
            compressor = compress_streams(
                built.cst, capture.streams, config=config, nranks=nprocs
            )
    if registry is not None:
        compressor.publish_metrics(registry)
        registry.counter_add("trace.total_events", result.total_events)
    return PythonRun(
        structure=built,
        nprocs=nprocs,
        compressor=compressor,
        run_result=result,
    )
