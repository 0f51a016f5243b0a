"""Run annotated Python rank functions under the CYPRESS tracer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.api import MergedRunMixin, trace_live
from repro.core.decompress import ReplayEvent, decompress_merged_rank
from repro.core.inter import MergedCTT
from repro.core.intra import CypressConfig, IntraProcessCompressor
from repro.mpisim.netmodel import NetworkModel
from repro.mpisim.pmpi import TraceSink
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
) -> PythonRun:
    """Execute ``rank_fn`` on every simulated rank with CYPRESS attached.

    ``rank_fn(tc)`` must be a generator function taking a
    :class:`TracedComm`; ``structure`` is the declared communication
    structure (see :class:`repro.frontend.structure.S`).
    """
    built = (
        structure
        if isinstance(structure, BuiltStructure)
        else build_structure(structure)
    )

    def rank_main(comm):
        return rank_fn(TracedComm(comm, built))

    def run(sink):
        return Runtime(nprocs, network=network, tracer=sink).run(rank_main)

    compressor, result, _ = trace_live(
        built.cst, nprocs, run, config=config, extra_sinks=extra_sinks
    )
    return PythonRun(
        structure=built,
        nprocs=nprocs,
        compressor=compressor,
        run_result=result,
    )
