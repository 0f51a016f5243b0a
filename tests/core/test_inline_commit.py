"""The walk's inline commit serves every MPI call (docs/INTERNALS.md §5).

``IntraProcessCompressor._walk`` dispatches an event once and commits it
where it stands — blocking or not, with or without requests.  What still
leaves the loop is countable: a wildcard ``Irecv`` (deferred until its
source is known), and a key build for a parameter set that has no record
yet.  These tests pin the counters that say so, and that the inline
request handling and the per-leaf params index change no byte.
"""

import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.core import serialize
from repro.core.budget import SPILLED
from repro.core.inter import merge_all
from repro.core.intra import (
    CypressConfig,
    IntraProcessCompressor,
    compress_streams,
)
from repro.driver import run_compiled
from repro.mpisim.events import CommEvent
from repro.mpisim.pmpi import (
    OP_EVENT,
    OP_FINALIZE,
    OP_LOOP_ITER,
    OP_LOOP_POP,
    OP_LOOP_PUSH,
    StreamCaptureSink,
)
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS

sys.path.insert(0, "tests")
from spec_compress import SpecWalk  # noqa: E402

# Rank 0 posts wildcard irecvs; the others send (tests/core/
# test_wildcard_window.py's shape, with a nonblocking reply added).
WILDCARD_IRECV = """
func main() {
  var rank = mpi_comm_rank();
  if (rank == 0) {
    for (var i = 0; i < 12; i = i + 1) {
      var r = mpi_irecv(-1, 8, 0);
      mpi_wait(r);
      var s = mpi_isend(1 + i % 2, 16, 1);
      mpi_wait(s);
    }
  } else {
    for (var i = 0; i < 6; i = i + 1) {
      mpi_send(0, 8, 0);
      mpi_recv(0, 16, 1);
    }
  }
}
"""


def _capture(source, nprocs, defines=None):
    compiled = compile_minimpi(source)
    capture = StreamCaptureSink()
    run_compiled(compiled, nprocs, defines=defines, tracer=capture)
    return compiled, capture.streams


def _workload(name, nprocs, scale):
    w = WORKLOADS[name]
    w.check_procs(nprocs)
    return _capture(w.source, nprocs, w.defines(nprocs, scale))


def _events(streams):
    for stream in streams.values():
        for item in stream:
            if item[0] == OP_EVENT:
                yield item[1]


def _blob(comp, nprocs):
    return serialize.dumps(
        merge_all([comp.ctt(r) for r in range(nprocs)], nranks=nprocs)
    )


def _spec(cst, sink, **config) -> SpecWalk:
    """The spec fed rank 0 of what ``sink`` (a capture) recorded."""
    walk = SpecWalk(cst, 0, **config)
    walk.feed(sink.streams[0])
    return walk


def _spec_blob(walk) -> bytes:
    return serialize.dumps(merge_all([walk.ctt], nranks=1))


class TestCounterContract:
    @pytest.mark.parametrize(
        "name,nprocs,scale",
        [("sp", 16, 0.5), ("cg", 8, 0.5), ("mg", 16, 0.1), ("farm", 4, 1.0)],
    )
    def test_nonblocking_workloads_never_leave_the_walk(
        self, name, nprocs, scale
    ):
        compiled, streams = _workload(name, nprocs, scale)
        nonblocking = sum(
            1 for ev in _events(streams) if ev.op in ("MPI_Isend", "MPI_Irecv")
        )
        if name != "farm":  # farm's wildcards are blocking receives
            assert nonblocking > 0
        c = compress_streams(compiled.cst, streams).metrics_counters()
        assert c["intra.stream_fallback"] == 0
        # A key is built for a parameter set with no record yet, and for
        # nothing else: not per cache miss, not per event.
        assert c["intra.key_builds"] == c["intra.records"]
        assert c["intra.records"] < c["intra.events"]

    def test_stream_fallback_counts_wildcard_irecvs(self):
        compiled, streams = _capture(WILDCARD_IRECV, 3)
        deferred = sum(
            1 for ev in _events(streams)
            if ev.wildcard and ev.op == "MPI_Irecv"
        )
        assert deferred == 12
        c = compress_streams(compiled.cst, streams).metrics_counters()
        assert c["intra.stream_fallback"] == deferred
        assert c["intra.wildcard_deferred"] == deferred
        # The two resolved Irecv records got their keys at completion,
        # not from the walk.
        assert c["intra.key_builds"] == c["intra.records"] - 2

    def test_bounded_window_commits_outside_the_walk(self):
        compiled, streams = _workload("cg", 8, 0.3)
        c = compress_streams(
            compiled.cst, streams, config=CypressConfig(window=1)
        ).metrics_counters()
        assert c["intra.stream_fallback"] == c["intra.events"]
        assert c["intra.key_builds"] == c["intra.events"]


STRAIGHT = """
func main() {
  mpi_send(1, 8, 0);
  mpi_bcast(0, 8);
  mpi_send(1, 16, 0);
}
"""


class TestLeafDispatch:
    """The leaf is the child at ``search_pos`` when the program runs its
    calls in source order; any other order must land where the spec's
    scan ("first candidate at or after search_pos, else the first")
    lands."""

    ORDER = ["MPI_Send", "MPI_Send", "MPI_Bcast", "MPI_Send", "MPI_Send"]
    #         child 0     skips 1->2  past end->1   child 2     wraps->0

    def _drive(self, sink):
        emit = sink.stream(0)
        for seq, op in enumerate(self.ORDER):
            emit((OP_EVENT, CommEvent(
                op=op, rank=0, seq=seq, peer=1, nbytes=8,
                time_start=5.0 * seq, duration=1.0,
            )))
        emit((OP_FINALIZE,))
        return sink

    def test_out_of_order_events_scan_and_wrap_like_the_reference(self):
        cst = compile_minimpi(STRAIGHT).cst
        fast = self._drive(IntraProcessCompressor(cst))
        spec = _spec(cst, self._drive(StreamCaptureSink()))
        root = fast.ctt(0).root
        visits = [v.leaf_visits for v in root.children]
        assert visits == [2, 1, 2]
        assert visits == [spec.leaf_visits.get(v, 0) for v in spec.ctt.root.children]
        assert _blob(fast, 1) == _spec_blob(spec)
        # Events 2, 3 and 5 were not at the search position.
        assert fast.metrics_counters()["intra.mono_cache_miss"] == 3

    def test_in_order_events_never_consult_the_table(self):
        compiled, streams = _workload("cg", 8, 0.3)
        c = compress_streams(compiled.cst, streams).metrics_counters()
        assert c["intra.mono_cache_miss"] == 0


# One loop whose body visits five leaves in source order; the property
# below drives it by hand with request ids no simulator would produce.
HALO = """
func main() {
  var r[2];
  for (var i = 0; i < n; i = i + 1) {
    r[0] = mpi_irecv(1, 8, 0);
    r[1] = mpi_isend(1, 8, 0);
    mpi_waitall(r, 2);
    var q = mpi_isend(1, 8, 1);
    mpi_wait(q);
  }
}
"""
_HALO = compile_minimpi(HALO)
_HALO_LOOP = next(n.ast_id for n in _HALO.cst.preorder() if n.kind == "loop")

# Ids 1-4 get posted (and reposted: reuse); 5-6 never do (unknown -> -1).
_posted = st.integers(1, 4)
_any_id = st.integers(1, 6)
_small = st.sampled_from([8, 16, 24])
_iteration = st.tuples(
    _posted, _small,                            # Irecv: req, nbytes
    _posted, _small,                            # Isend: req, nbytes
    st.lists(_any_id, max_size=4).map(tuple),   # Waitall: reqs, duplicates ok
    _posted, st.integers(0, 2),                 # Isend: req, tag
    _any_id,                                    # Wait: the one req
)


def _drive_halo(comp, iterations):
    seq = 0
    emit = comp.stream(0)

    def event(op, **kw):
        nonlocal seq
        emit((OP_EVENT, CommEvent(
            op=op, rank=0, seq=seq, time_start=10.0 * seq, duration=1.0, **kw
        )))
        seq += 1

    emit((OP_LOOP_PUSH, _HALO_LOOP))
    for rreq, rbytes, sreq, sbytes, reqs, qreq, qtag, wreq in iterations:
        emit((OP_LOOP_ITER, _HALO_LOOP))
        event("MPI_Irecv", peer=1, nbytes=rbytes, req=rreq)
        event("MPI_Isend", peer=1, nbytes=sbytes, req=sreq)
        event("MPI_Waitall", reqs=reqs)
        event("MPI_Isend", peer=1, nbytes=8, tag=qtag, req=qreq)
        event("MPI_Wait", reqs=(wreq,))
    emit((OP_LOOP_POP, _HALO_LOOP))
    emit((OP_FINALIZE,))
    return comp


class TestInlineRequestsProperty:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(_iteration, min_size=1, max_size=12),
           st.sampled_from([None, 2]))
    def test_fast_and_reference_agree_on_odd_request_ids(
        self, iterations, window
    ):
        fast = _drive_halo(
            IntraProcessCompressor(_HALO.cst, CypressConfig(window=window)),
            iterations,
        )
        spec = _spec(
            _HALO.cst, _drive_halo(StreamCaptureSink(), iterations),
            window=window,
        )
        assert _blob(fast, 1) == _spec_blob(spec)
        assert fast.state(0).req_gid == spec.req_gid

    def test_duplicate_id_in_one_completion_resolves_twice(self):
        # Get-all-then-pop-all: both occurrences of id 1 see its creator.
        comp = _drive_halo(
            IntraProcessCompressor(_HALO.cst),
            [(1, 8, 2, 8, (1, 1, 5), 3, 0, 3)],
        )
        waitall = next(
            v for v in comp.ctt(0).preorder() if v.op == "MPI_Waitall"
        )
        irecv = next(v for v in comp.ctt(0).preorder() if v.op == "MPI_Irecv")
        (record,) = waitall.records
        assert record.key[10] == (irecv.gid, irecv.gid, -1)
        assert set(comp.state(0).req_gid) == {2}  # the Isend never waited on


class TestSpillBetweenIsendAndWaitall:
    def test_reload_starts_with_an_empty_index_and_same_bytes(self):
        nprocs = 4
        compiled, streams = _workload("cg", nprocs, 0.3)
        expected = _blob(compress_streams(compiled.cst, streams), nprocs)

        # Cut rank 0's stream right after an Isend deep in the steady
        # state: its request is in flight, its Waitall is still to come.
        stream = streams[0]
        isends = [
            i for i, item in enumerate(stream)
            if item[0] == OP_EVENT and item[1].op == "MPI_Isend"
        ]
        cut = isends[len(isends) // 2] + 1

        comp = IntraProcessCompressor(
            compiled.cst, CypressConfig(memory_budget_bytes=1)
        )
        comp.enable_incremental_fold(nranks=nprocs, domain=range(nprocs))
        comp.ingest_stream(0, stream[:cut])
        for rank in range(1, nprocs):  # 1-byte budget: rank 0 spills
            comp.ingest_stream(rank, streams[rank])
        assert comp.budget_counters.spills >= 1
        assert comp.table.status(0) == SPILLED

        st0 = comp.state(0)  # reload
        assert st0.req_gid, "the Isend's request must survive the spill"
        leaves = [v for v in st0.ctt.vertices() if v.records]
        assert leaves
        for v in leaves:
            assert v.params_index == {} and v.last_params is None
            assert len(v.record_index) == len(v.records)  # the truth

        before = comp.metrics_counters()
        comp.ingest_stream(0, stream[cut:])
        after = comp.metrics_counters()
        # The index refilled from record_index: keys were built, but no
        # parameter set seen before the spill opened a second record.
        assert after["intra.key_builds"] > before["intra.key_builds"]
        assert after["intra.key_builds"] > after["intra.records"]
        for rank in range(nprocs):
            comp.seal_rank(rank)
        blob = serialize.dumps(comp.merged(nranks=nprocs))
        comp.close_spill()
        assert blob == expected
