"""Nothing the pipeline builds is cyclic garbage.

A dropped compressor, a dropped traced run and a dropped simulator run
must each be freed by reference counting alone.  A reference cycle in
any of them pins a whole job — every rank's CTT and records, or every
``Request`` of the run — until a generation-2 collection happens to
run, which outside a benchmark harness is time spent in ``gc`` and
memory held for no one.

sp is the nonblocking halo exchange, mg the wide branchy shape, farm
the wildcard workload (pending-receive state); the budgeted compressor
adds the spill / reload / fold state.
"""

import gc

import pytest

from repro.core.api import run_cypress
from repro.core.intra import CypressConfig, compress_streams
from repro.driver import run_compiled
from repro.mpisim.pmpi import NullSink, StreamCaptureSink
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS

SHAPES = [("sp", 16, 0.3), ("mg", 16, 0.1), ("farm", 4, 1.0)]


@pytest.fixture(params=SHAPES, ids=[s[0] for s in SHAPES])
def job(request):
    name, nprocs, scale = request.param
    w = WORKLOADS[name]
    w.check_procs(nprocs)
    compiled = compile_minimpi(w.source)
    defines = w.defines(nprocs, scale)
    capture = StreamCaptureSink()
    run_compiled(compiled, nprocs, defines=defines, tracer=capture)
    return compiled, nprocs, defines, capture.streams


def _garbage_after(build) -> int:
    """How many unreachable objects dropping ``build()``'s result leaves
    for the collector, with automatic collection off in between."""
    gc.collect()
    gc.disable()
    try:
        held = build()
        del held
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("budget", [None, 1], ids=["unbudgeted", "budget1"])
def test_dropped_compressor_is_freed_by_refcount(job, budget):
    compiled, nprocs, _, streams = job

    def build():
        comp = compress_streams(
            compiled.cst, streams,
            config=CypressConfig(memory_budget_bytes=budget), nranks=nprocs,
        )
        if budget is not None:
            comp.merged(nranks=nprocs)
            comp.close_spill()
        return comp

    assert _garbage_after(build) == 0


def test_dropped_cypress_run_is_freed_by_refcount(job):
    compiled, nprocs, defines, _ = job

    def build():
        run = run_cypress(compiled, nprocs, defines=defines)
        run.merge()
        return run

    assert _garbage_after(build) == 0


def test_dropped_null_run_is_freed_by_refcount(job):
    compiled, nprocs, defines, _ = job
    assert _garbage_after(
        lambda: run_compiled(compiled, nprocs, defines=defines,
                             tracer=NullSink())
    ) == 0
