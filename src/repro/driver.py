"""High-level execution driver: compile a MiniMPI program and run it on the
simulated MPI machine.

This is the glue the examples, workloads and benchmarks use::

    compiled = compile_minimpi(source)
    result = run_compiled(compiled, nprocs=64, tracer=my_sink)
"""

from __future__ import annotations

from typing import NamedTuple

from repro.minilang.interp import Interpreter
from repro.mpisim.netmodel import NetworkModel
from repro.mpisim.pmpi import StreamCaptureSink, TraceSink
from repro.mpisim.runtime import Runtime, RunResult
from repro.static.instrument import CompiledProgram, compile_minimpi

__all__ = [
    "Capture", "capture_run", "compile_minimpi", "run_compiled", "run_source",
]


def run_compiled(
    compiled: CompiledProgram,
    nprocs: int,
    defines: dict[str, int] | None = None,
    tracer: TraceSink | None = None,
    network: NetworkModel | None = None,
    max_steps: int | None = None,
) -> RunResult:
    """Execute a compiled MiniMPI program on ``nprocs`` simulated ranks."""
    runtime = Runtime(nprocs, network=network, tracer=tracer)

    def rank_main(comm):
        interp = Interpreter(
            compiled.program,
            comm,
            defines=defines,
            plan=compiled.plan,
            max_steps=max_steps,
        )
        return interp.run()

    return runtime.run(rank_main)


class Capture(NamedTuple):
    """One run of a program under the stream capture sink."""

    compiled: CompiledProgram
    nprocs: int
    streams: dict[int, list]  # rank -> opcode tuples (StreamCaptureSink)
    events: int


def capture_run(
    source: str,
    nprocs: int,
    defines: dict[str, int] | None = None,
) -> Capture:
    """Compile ``source`` and run it once, capturing every rank's
    stream."""
    compiled = compile_minimpi(source)
    capture = StreamCaptureSink()
    result = run_compiled(compiled, nprocs, defines=defines, tracer=capture)
    return Capture(compiled, nprocs, capture.streams, result.total_events)


def run_source(
    source: str,
    nprocs: int,
    defines: dict[str, int] | None = None,
    tracer: TraceSink | None = None,
    cypress: bool = True,
    network: NetworkModel | None = None,
    max_steps: int | None = None,
) -> tuple[CompiledProgram, RunResult]:
    """Compile and run in one call; returns (compiled, run result)."""
    compiled = compile_minimpi(source, cypress=cypress)
    result = run_compiled(
        compiled, nprocs, defines=defines, tracer=tracer,
        network=network, max_steps=max_steps,
    )
    return compiled, result
