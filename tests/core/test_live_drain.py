"""Live tracing is capture-and-drain (docs/INTERNALS.md §5): emitters
append to bounded per-rank buffers and ``ingest_stream`` compresses a
buffer at a time.  Where the drain boundaries fall is an accident of two
module constants, so it must not move a byte: for every buffer size the
live compressor's per-rank and merged bytes equal ``compress_streams``
of the captured stream, and both equal the naive compressor in
``tests/spec_compress.py``.
"""

import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import intra, serialize
from repro.core.api import run_cypress
from repro.core.inter import merge_all
from repro.core.intra import (
    CypressConfig,
    IntraProcessCompressor,
    compress_streams,
)
from repro.driver import run_compiled
from repro.mpisim.pmpi import (
    OP_EVENT,
    OP_RECURSE_ENTER,
    OP_REQ_COMPLETE,
    MultiSink,
    RecordingSink,
    StreamCaptureSink,
    TimingSink,
    TraceSink,
)
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from spec_compress import spec_compress_streams  # noqa: E402

SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

DEFAULT = (intra.DRAIN_ITEMS, intra.TOTAL_ITEMS)
#: (DRAIN_ITEMS, TOTAL_ITEMS): a boundary after every item, inside every
#: pair, at a prime stride, mid-structure, the shipped sizes, and one
#: where only the total cap ever fires.
SIZES = [
    (1, DEFAULT[1]), (2, DEFAULT[1]), (7, DEFAULT[1]), (64, DEFAULT[1]),
    DEFAULT, (DEFAULT[0], 5),
]


def _blobs(comp, nprocs: int) -> list[bytes]:
    """Per-rank bytes, then the merged container."""
    return _ctt_blobs([comp.ctt(r) for r in range(nprocs)], nprocs)


def _ctt_blobs(ctts, nprocs: int) -> list[bytes]:
    return [
        serialize.dumps(merge_all([ctt], nranks=nprocs)) for ctt in ctts
    ] + [serialize.dumps(merge_all(ctts, nranks=nprocs))]


def _live(compiled, nprocs, defines, window, sizes, extra=()):
    """One live run, buffers sized ``sizes``; the constants are read at
    every callback, so setting the module globals around the run is all
    it takes."""
    comp = IntraProcessCompressor(compiled.cst, CypressConfig(window=window))
    saved = (intra.DRAIN_ITEMS, intra.TOTAL_ITEMS)
    intra.DRAIN_ITEMS, intra.TOTAL_ITEMS = sizes
    try:
        run_compiled(
            compiled, nprocs, defines=defines,
            tracer=MultiSink([comp, *extra]), max_steps=2_000_000,
        )
    finally:
        intra.DRAIN_ITEMS, intra.TOTAL_ITEMS = saved
    return comp


def _assert_boundary_free(source, nprocs, window, defines=None, sizes=SIZES):
    compiled = compile_minimpi(source)
    capture = StreamCaptureSink()
    run_compiled(compiled, nprocs, defines=defines, tracer=capture,
                 max_steps=2_000_000)
    streams = {r: capture.streams.get(r, []) for r in range(nprocs)}
    expected = _ctt_blobs(
        spec_compress_streams(compiled.cst, streams, window=window), nprocs
    )
    assert expected == _blobs(
        compress_streams(
            compiled.cst, capture.streams, config=CypressConfig(window=window)
        ),
        nprocs,
    )
    for size in sizes:
        comp = _live(compiled, nprocs, defines, window, size)
        assert _blobs(comp, nprocs) == expected, f"live, {size}"
        assert not any(comp._buffers.values()) and comp._buffered == 0
    return capture.streams


class TestDrainBoundaryProperty:
    @settings(**SETTINGS)
    @given(program(allow_functions=True), st.sampled_from([None, 1, 4]))
    def test_random_programs_any_buffer_size(self, source, window):
        _assert_boundary_free(source, nprocs=2, window=window)


WILDCARD_IRECV = """
func main() {
  var rank = mpi_comm_rank();
  if (rank == 0) {
    for (var i = 0; i < 12; i = i + 1) {
      var r = mpi_irecv(-1, 8, 0);
      compute(5);
      mpi_wait(r);
    }
  } else {
    for (var i = 0; i < 6; i = i + 1) { mpi_send(0, 8, 0); }
  }
}
"""

WAITALL = """
func main() {
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  var r[2];
  for (var i = 0; i < 6; i = i + 1) {
    r[0] = mpi_irecv((rank + size - 1) % size, 64, i % 2);
    r[1] = mpi_isend((rank + 1) % size, 64, i % 2);
    mpi_waitall(r, 2);
  }
}
"""

RECURSION = """
func main() { f(6); }
func f(n) {
  if (n == 0) {
    return;
  } else {
    mpi_bcast(0, 8);
    f(n - 1);
    mpi_reduce(0, 8);
  }
}
"""


class TestBoundaryCases:
    @pytest.mark.parametrize("window", [None, 1, 4])
    def test_wildcard_irecv_pending_across_a_boundary(self, window):
        # One item per drain: every Irecv(ANY_SOURCE) is ingested — and
        # left pending — in an earlier drain than its completion.
        streams = _assert_boundary_free(
            WILDCARD_IRECV, 3, window, sizes=[(1, DEFAULT[1]), (2, DEFAULT[1])]
        )
        codes = [item[0] for item in streams[0]]
        assert codes.count(OP_REQ_COMPLETE) == 12
        comp = _live(
            compile_minimpi(WILDCARD_IRECV), 3, None, window, (1, DEFAULT[1])
        )
        assert comp.metrics_counters()["intra.wildcard_deferred"] == 12

    def test_waitall_requests_created_in_the_previous_drain(self):
        # Irecv, Isend, Waitall are consecutive items: with three-item
        # buffers offset by the loop markers, and with one- and two-item
        # buffers, the Waitall resolves request ids to GIDs registered by
        # an earlier drain.
        streams = _assert_boundary_free(
            WAITALL, 4, None,
            sizes=[(1, DEFAULT[1]), (2, DEFAULT[1]), (3, DEFAULT[1])],
        )
        waits = [
            item[1] for item in streams[0]
            if item[0] == OP_EVENT and item[1].op == "MPI_Waitall"
        ]
        assert len(waits) == 6 and all(len(w.reqs) == 2 for w in waits)

    def test_boundary_inside_a_recursion_pseudo_loop(self):
        # Paper Fig. 8 shape: the saved frames of a pseudo-loop iteration
        # live in the rank state from one drain to the next.
        streams = _assert_boundary_free(
            RECURSION, 2, None,
            sizes=[(1, DEFAULT[1]), (2, DEFAULT[1]), (7, DEFAULT[1]),
                   (DEFAULT[0], 5)],
        )
        codes = [item[0] for item in streams[0]]
        assert codes.count(OP_RECURSE_ENTER) == 7

    def test_recording_sink_mutating_shared_events(self):
        # RecordingSink resolves a wildcard Irecv's peer/nbytes when the
        # request completes — in its own copy, not on the CommEvent the
        # compressor has only buffered so far.
        compiled = compile_minimpi(WILDCARD_IRECV)
        plain = _live(compiled, 3, None, None, DEFAULT)
        for size in [(1, DEFAULT[1]), DEFAULT]:
            recorder = RecordingSink()
            shared = _live(compiled, 3, None, None, size, extra=[recorder])
            assert _blobs(shared, 3) == _blobs(plain, 3)
            irecvs = [e for e in recorder.events[0] if e.op == "MPI_Irecv"]
            assert irecvs and all(e.peer in (1, 2) for e in irecvs)

    def test_farm_with_a_recording_sink_beside_the_compressor(self):
        w = WORKLOADS["farm"]
        nprocs = 4
        compiled = compile_minimpi(w.source)
        defines = w.defines(nprocs, 1.0)
        plain = _live(compiled, nprocs, defines, None, DEFAULT)
        for size in [(1, DEFAULT[1]), (7, DEFAULT[1]), DEFAULT]:
            comp = _live(
                compiled, nprocs, defines, None, size, extra=[RecordingSink()]
            )
            assert _blobs(comp, nprocs) == _blobs(plain, nprocs)


class _CountingSink(RecordingSink):
    def __init__(self):
        super().__init__()
        self.flushes = 0
        self.events_at_flush = None

    def flush(self):
        self.flushes += 1
        self.events_at_flush = sum(len(v) for v in self.events.values())


class TestFlushProtocol:
    def test_runtime_flushes_once_after_the_last_rank(self):
        compiled = compile_minimpi(WAITALL)
        a, b = _CountingSink(), _CountingSink()
        timing = TimingSink(b)
        result = run_compiled(compiled, 2, tracer=MultiSink([a, timing]))
        assert a.flushes == b.flushes == 1
        assert a.events_at_flush == result.total_events

    def test_timed_overhead_includes_the_final_drain(self, monkeypatch):
        # WAITALL never calls mpi_finalize, so every item is still
        # buffered when the last rank ends: all of the ingest happens in
        # flush(), and Fig. 16's numerator must include it.
        class SlowFlush(TraceSink):
            def flush(self):
                time.sleep(0.05)

        timing = TimingSink(SlowFlush())
        run_compiled(compile_minimpi(WAITALL), 2, tracer=timing)
        assert timing.elapsed >= 0.05

        drain = IntraProcessCompressor.flush

        def slow_drain(self):
            time.sleep(0.05)
            drain(self)

        monkeypatch.setattr(IntraProcessCompressor, "flush", slow_drain)
        run = run_cypress(WAITALL, 2, measure_overhead=True)
        assert run.intra_seconds >= 0.05
        assert run.compressor.metrics_counters()["intra.live_drains"] == 2

    def test_flush_is_idempotent_and_safe_on_an_idle_compressor(self):
        compiled = compile_minimpi(WAITALL)
        comp = IntraProcessCompressor(compiled.cst)
        comp.flush()
        run_compiled(compiled, 2, tracer=comp)
        before = _blobs(comp, 2)
        comp.flush()
        assert _blobs(comp, 2) == before


def _capture(compiled, defines, nprocs=2):
    capture = StreamCaptureSink()
    run_compiled(compiled, nprocs, defines=defines, tracer=capture)
    return capture.streams


class TestLiveCounters:
    """A structural floor CI can hold without timing anything."""

    def test_drain_count_is_bounded_by_items_over_drain_size(self):
        w = WORKLOADS["fig11"]
        nprocs = 4
        compiled = compile_minimpi(w.source)
        defines = w.defines(nprocs, 5)
        items = sum(len(s) for s in _capture(compiled, defines, nprocs).values())
        comp = IntraProcessCompressor(compiled.cst)
        run_compiled(compiled, nprocs, defines=defines, tracer=comp)
        counters = comp.metrics_counters()
        assert items > 2 * intra.DRAIN_ITEMS  # or the bound says nothing
        assert 0 < counters["intra.live_drains"] <= (
            items / intra.DRAIN_ITEMS + nprocs
        )
        assert 0 < counters["intra.live_buffer_peak_items"] <= intra.TOTAL_ITEMS

    def test_resident_items_never_exceed_the_total_cap_on_wide_runs(self):
        # 64 ranks share one process: residency is bounded by the total
        # cap, not by 64 full per-rank buffers.
        w = WORKLOADS["mg"]
        nprocs = 64
        compiled = compile_minimpi(w.source)
        defines = w.defines(nprocs, 1.0)
        items = sum(len(s) for s in _capture(compiled, defines, nprocs).values())
        assert items > 2 * intra.TOTAL_ITEMS  # the cap has to bite
        comp = IntraProcessCompressor(compiled.cst)
        run_compiled(compiled, nprocs, defines=defines, tracer=comp)
        counters = comp.metrics_counters()
        assert counters["intra.live_buffer_peak_items"] <= intra.TOTAL_ITEMS
        assert counters["intra.live_drains"] >= nprocs


MARKER_ONLY = """
func main() {
  var rank = mpi_comm_rank();
  for (var i = 0; i < N; i = i + 1) {
    if (rank == 0) { mpi_sendrecv(0, 8, 0, 0, 8, 0); }
  }
}
"""


class _BatchLog(IntraProcessCompressor):
    """Records ``(rank, items)`` for every batch the live buffers drain."""

    def __init__(self, cst):
        super().__init__(cst)
        self.batches = []

    def ingest_stream(self, rank, stream):
        self.batches.append((rank, len(stream)))
        super().ingest_stream(rank, stream)


class TestMarkerOnlyRanks:
    def test_a_rank_emitting_only_markers_drains_at_the_rank_bound(self):
        # Rank 1 never calls MPI inside the loop: its loop-iter and
        # branch markers are all it emits, and they must drain at
        # DRAIN_ITEMS like any other items, not pile up until the total
        # cap flushes every rank.
        compiled = compile_minimpi(MARKER_ONLY)
        defines = {"N": 3 * intra.DRAIN_ITEMS + 5}
        capture = StreamCaptureSink()
        run_compiled(compiled, 2, defines=defines, tracer=capture)
        assert len(capture.streams[1]) > 3 * intra.DRAIN_ITEMS
        comp = _BatchLog(compiled.cst)
        run_compiled(compiled, 2, defines=defines, tracer=comp)
        ones = [n for rank, n in comp.batches if rank == 1]
        assert len(ones) >= 3  # drained mid-loop, not only at the end
        assert max(n for _, n in comp.batches) <= intra.DRAIN_ITEMS
        counters = comp.metrics_counters()
        assert counters["intra.live_buffer_peak_items"] <= intra.TOTAL_ITEMS
        assert _blobs(comp, 2) == _blobs(
            compress_streams(compiled.cst, capture.streams), 2
        )
