"""PMPI sink-layer tests: the one sink contract, MultiSink fan-out,
TimingSink accounting, RecordingSink ground truth, marker plumbing."""

from repro.mpisim.datatypes import ANY_SOURCE
from repro.mpisim.events import CommEvent
from repro.mpisim.pmpi import (
    OP_BRANCH_ENTER,
    OP_BRANCH_EXIT,
    OP_EVENT,
    OP_FINALIZE,
    OP_LOOP_ITER,
    OP_LOOP_POP,
    OP_LOOP_PUSH,
    OP_RECURSE_ENTER,
    OP_RECURSE_EXIT,
    OP_REQ_COMPLETE,
    MultiSink,
    NullSink,
    RecordingSink,
    TimingSink,
    TraceSink,
)

_NAMES = {
    OP_LOOP_PUSH: "push", OP_LOOP_ITER: "iter", OP_LOOP_POP: "pop",
    OP_BRANCH_ENTER: "benter", OP_BRANCH_EXIT: "bexit",
    OP_RECURSE_ENTER: "renter", OP_RECURSE_EXIT: "rexit",
    OP_EVENT: "event", OP_REQ_COMPLETE: "complete", OP_FINALIZE: "finalize",
}


class CountingSink(TraceSink):
    wants_markers = True

    def __init__(self):
        self.counts = {}

    def stream(self, rank):
        def emit(item):
            name = _NAMES[item[0]]
            self.counts[name] = self.counts.get(name, 0) + 1
        return emit


EVENT = CommEvent(op="MPI_Send", rank=0, seq=0)
ITEMS = [
    (OP_LOOP_PUSH, 1), (OP_LOOP_ITER, 1), (OP_BRANCH_ENTER, 2, 0),
    (OP_EVENT, EVENT), (OP_BRANCH_EXIT, 2), (OP_LOOP_POP, 1),
    (OP_RECURSE_ENTER, 3), (OP_RECURSE_EXIT, 3),
    (OP_REQ_COMPLETE, 1, 1, 8, 1.0), (OP_FINALIZE,),
]


def drive(sink):
    emit = sink.stream(0)
    for item in ITEMS:
        emit(item)


def test_trace_sink_is_stream_flush_and_wants_markers():
    members = {name for name in vars(TraceSink) if not name.startswith("__")}
    assert members == {"stream", "flush", "wants_markers"}
    drive(NullSink())  # the default emitter takes every item and does nothing


class TestMultiSink:
    def test_fans_out_every_callback(self):
        a, b = CountingSink(), CountingSink()
        multi = MultiSink([a, b])
        drive(multi)
        assert a.counts == b.counts
        assert a.counts["event"] == 1 and a.counts["push"] == 1
        assert sum(a.counts.values()) == 10

    def test_wants_markers_any(self):
        assert MultiSink([NullSink(), CountingSink()]).wants_markers
        assert not MultiSink([NullSink(), NullSink()]).wants_markers


class TestTimingSink:
    def test_counts_and_time_accumulate(self):
        inner = CountingSink()
        timed = TimingSink(inner)
        drive(timed)
        assert timed.calls == 10
        assert timed.elapsed >= 0
        assert sum(inner.counts.values()) == 10

    def test_wants_markers_forwarded(self):
        assert TimingSink(CountingSink()).wants_markers
        assert not TimingSink(NullSink()).wants_markers


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


# A ring of forty nonblocking receives per rank, then rank 0 takes one
# message from every other rank through a wildcard Irecv.
RING_THEN_WILDCARDS = """
func main() {
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < 40; i = i + 1) {
    var r = mpi_irecv((rank + size - 1) % size, 8, 0);
    mpi_send((rank + 1) % size, 8, 0);
    mpi_wait(r);
  }
  if (rank == 0) {
    for (var i = 1; i < size; i = i + 1) {
      var w = mpi_irecv(-1, 8, 1);
      mpi_wait(w);
    }
  } else {
    mpi_send(0, 8, 1);
  }
}
"""

class TestRecordingSink:
    def test_keeps_events_only_and_no_key_for_a_silent_rank(self):
        sink = RecordingSink()
        drive(sink)
        sink.stream(1)((OP_FINALIZE,))
        assert sink.events == {0: [EVENT]}

    def test_truth_leaves_the_shared_events_alone(self):
        # The recorder resolves a wildcard Irecv in its own copy: the
        # captured stream is the same with and without it.
        from repro.driver import capture_run
        from tests.helpers import capture_with_truth

        plain = capture_run(WILDCARD_IRECV, 3)
        truth, recorder = capture_with_truth(WILDCARD_IRECV, 3)
        assert truth.streams == plain.streams
        captured = [
            item[1] for item in truth.streams[0]
            if item[0] == OP_EVENT and item[1].op == "MPI_Irecv"
        ]
        assert len(captured) == 12
        assert all(ev.peer == ANY_SOURCE for ev in captured)
        recorded = [ev for ev in recorder.events[0] if ev.op == "MPI_Irecv"]
        assert len(recorded) == 12
        assert all(ev.peer in (1, 2) and ev.nbytes == 8 for ev in recorded)


    def test_resolving_a_wildcard_reads_one_event(self):
        # Forty ordinary Irecv completions per rank and three wildcard
        # ones: recording reads back only the three events it resolves,
        # not the rank's list once per completion (a quadratic scan).
        from repro.driver import run_compiled
        from repro.static.instrument import compile_minimpi

        class ReadCountingList(list):
            reads = 0

            def __getitem__(self, i):
                ReadCountingList.reads += 1
                return super().__getitem__(i)

        sink = RecordingSink()
        for rank in range(4):
            sink.events[rank] = ReadCountingList()
        run_compiled(compile_minimpi(RING_THEN_WILDCARDS), 4, tracer=sink)
        # Irecv, send and wait forty times a rank; then 3 Irecv + wait
        # pairs on rank 0 and one send on each other rank.
        assert sum(map(len, sink.events.values())) == 4 * 120 + 3 * 3
        assert ReadCountingList.reads == 3
        resolved = [ev.peer for ev in sink.events[0]
                    if ev.op == "MPI_Irecv" and ev.wildcard]
        assert sorted(resolved) == [1, 2, 3]

class TestMarkersFromInterpreter:
    def test_marker_stream_matches_program_shape(self):
        from repro.driver import run_compiled
        from repro.static.instrument import compile_minimpi

        compiled = compile_minimpi(
            """
            func main() {
              for (var i = 0; i < 4; i = i + 1) {
                if (i % 2 == 0) { mpi_send(0, 8, 0); mpi_recv(0, 8, 0); }
              }
            }
            """
        )
        sink = CountingSink()
        run_compiled(compiled, 1, tracer=sink)
        assert sink.counts["push"] == 1
        assert sink.counts["iter"] == 4
        assert sink.counts["pop"] == 1
        assert sink.counts["benter"] == 4  # taken or not, the if executes
        assert sink.counts["bexit"] == 4
        assert sink.counts["event"] == 4  # 2 sends + 2 recvs

    def test_markers_suppressed_without_consumer(self):
        from repro.driver import run_compiled
        from repro.static.instrument import compile_minimpi

        compiled = compile_minimpi(
            "func main() { for (var i = 0; i < 3; i = i + 1) "
            "{ mpi_barrier(); } }"
        )
        sink = RecordingSink()  # wants_markers is False
        run_compiled(compiled, 2, tracer=sink)
        assert len(sink.events[0]) == 3  # events flow, markers skipped
