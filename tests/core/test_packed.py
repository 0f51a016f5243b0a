"""Packed event codec: round-trip properties and wire-format hardening.

The packed encoding is the server wire format; it reaches the compressor
decoded (``decode_stream``, then ``ingest_stream``).  These tests pin the
codec itself — ``decode_stream(encode_stream(s).to_bytes())`` must
reproduce the capture list exactly for every opcode, every sentinel
peer, every int64 boundary value, and empty/huge variable-length tuples
— and that a packed source through ``compress_streams`` gives the bytes,
the error index and the quarantine record of the list it encodes.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import StreamMismatchError, packed, serialize
from repro.core.inter import merge_all
from repro.core.intra import CypressConfig, compress_streams
from repro.driver import run_compiled
from repro.mpisim.datatypes import ANY_SOURCE
from repro.mpisim.events import NO_PEER, CommEvent
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
    StreamCaptureSink,
)
from repro.static.instrument import compile_minimpi

sys.path.insert(0, "tests")
from generators import program  # noqa: E402

from .test_live_drain import _blobs  # noqa: E402

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

i64 = st.integers(min_value=I64_MIN, max_value=I64_MAX)
# Peer fields mix realistic ranks with the codec's documented sentinels.
peers = st.one_of(st.sampled_from([NO_PEER, ANY_SOURCE, 0]), i64)
times = st.floats(allow_nan=False)  # NaN breaks tuple equality, not the codec
ops = st.sampled_from(
    ["MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv", "MPI_Waitall",
     "MPI_Allreduce", "MPI_Comm_split", "Custom_Op_é"]
)
id_tuples = st.lists(i64, max_size=6).map(tuple)


@st.composite
def events(draw):
    return CommEvent(
        op=draw(ops),
        rank=draw(i64),
        seq=draw(i64),
        peer=draw(peers),
        peer2=draw(peers),
        tag=draw(i64),
        tag2=draw(i64),
        nbytes=draw(i64),
        nbytes2=draw(i64),
        comm=draw(i64),
        root=draw(i64),
        req=draw(i64),
        reqs=draw(id_tuples),
        wildcard=draw(st.booleans()),
        result_comm=draw(i64),
        time_start=draw(times),
        duration=draw(times),
        req_gids=draw(id_tuples),
    )


ast_ids = st.integers(min_value=I64_MIN, max_value=I64_MAX)
items = st.one_of(
    st.tuples(st.just(OP_EVENT), events()),
    st.tuples(st.just(OP_BRANCH_ENTER), ast_ids, ast_ids),
    st.tuples(st.just(OP_REQ_COMPLETE), i64, peers, i64, times),
    st.tuples(st.just(OP_FINALIZE)),
    st.tuples(
        st.sampled_from(
            [OP_LOOP_PUSH, OP_LOOP_ITER, OP_LOOP_POP, OP_BRANCH_EXIT,
             OP_RECURSE_ENTER, OP_RECURSE_EXIT]
        ),
        ast_ids,
    ),
)
streams = st.lists(items, max_size=60)


@settings(**SETTINGS)
@given(streams)
def test_round_trip_through_bytes(stream):
    blob = packed.encode_stream(stream).to_bytes()
    assert packed.is_packed(blob)
    assert packed.decode_stream(blob) == stream
    nevents = sum(1 for it in stream if it[0] == OP_EVENT)
    assert packed.event_count(blob) == nevents


@settings(**SETTINGS)
@given(streams)
def test_in_memory_columns_match_serialized(stream):
    # decode_stream takes the encoder as it takes its blob; both must
    # decode identically.
    ps = packed.encode_stream(stream)
    assert packed.decode_stream(ps) == packed.decode_stream(ps.to_bytes())
    assert packed.event_count(ps) == packed.event_count(ps.to_bytes())


def _one(ev):
    return packed.decode_stream(
        packed.encode_stream([(OP_EVENT, ev)]).to_bytes()
    )[0][1]


class TestEdgeValues:
    def test_every_opcode_in_one_stream(self):
        stream = [
            (OP_LOOP_PUSH, 3),
            (OP_LOOP_ITER, 3),
            (OP_BRANCH_ENTER, 4, 1),
            (OP_EVENT, CommEvent("MPI_Send", 0, 0, peer=1, nbytes=8)),
            (OP_BRANCH_EXIT, 4),
            (OP_RECURSE_ENTER, 5),
            (OP_RECURSE_EXIT, 5),
            (OP_LOOP_POP, 3),
            (OP_REQ_COMPLETE, 7, 2, 64, 1.5),
            (OP_FINALIZE,),
        ]
        assert packed.decode_stream(packed.encode_stream(stream).to_bytes()) == stream

    def test_sentinel_peers(self):
        for peer in (NO_PEER, ANY_SOURCE):
            ev = CommEvent("MPI_Recv", 0, 1, peer=peer, wildcard=peer == ANY_SOURCE)
            assert _one(ev) == ev

    def test_int64_boundaries(self):
        ev = CommEvent(
            "MPI_Send", I64_MIN, I64_MAX, peer=I64_MIN, peer2=I64_MAX,
            tag=I64_MIN, tag2=I64_MAX, nbytes=I64_MAX, nbytes2=I64_MIN,
            comm=I64_MAX, root=I64_MIN, req=I64_MAX, result_comm=I64_MIN,
            reqs=(I64_MIN, I64_MAX), req_gids=(I64_MAX, I64_MIN),
        )
        assert _one(ev) == ev

    def test_empty_and_huge_tuples(self):
        empty = CommEvent("MPI_Wait", 0, 0, reqs=(), req_gids=())
        huge = CommEvent(
            "MPI_Waitall", 0, 1,
            reqs=tuple(range(10_000)),
            req_gids=tuple(range(0, -10_000, -1)),
        )
        decoded = packed.decode_stream(
            packed.encode_stream([(OP_EVENT, empty), (OP_EVENT, huge)]).to_bytes()
        )
        assert decoded[0][1] == empty
        assert decoded[1][1] == huge

    def test_op_table_interns(self):
        stream = [(OP_EVENT, CommEvent("MPI_Send", 0, i)) for i in range(5)]
        ps = packed.encode_stream(stream)
        assert ps.ops == ["MPI_Send"]


class TestMalformedInput:
    def test_unknown_opcode_rejected(self):
        with pytest.raises(packed.PackedStreamError):
            packed.encode_stream([(99, 1)])

    def test_overflow_is_encode_error(self):
        ev = CommEvent("MPI_Send", 0, 0, nbytes=2**63)
        with pytest.raises(packed.ENCODE_ERRORS):
            packed.encode_stream([(OP_EVENT, ev)])

    def test_non_integer_field_is_encode_error(self):
        ev = CommEvent("MPI_Send", 0, 0, tag="oops")
        with pytest.raises(packed.ENCODE_ERRORS):
            packed.encode_stream([(OP_EVENT, ev)])

    def test_bad_magic(self):
        with pytest.raises(packed.PackedStreamError):
            packed.decode_stream(b"NOPE" + b"\x00" * 64)

    def test_bad_version(self):
        blob = bytearray(packed.encode_stream([]).to_bytes())
        blob[4] = 200
        with pytest.raises(packed.PackedStreamError):
            packed.decode_stream(bytes(blob))

    def test_truncation(self):
        stream = [(OP_EVENT, CommEvent("MPI_Send", 0, 0, reqs=(1, 2, 3)))]
        blob = packed.encode_stream(stream).to_bytes()
        with pytest.raises(packed.PackedStreamError):
            packed.decode_stream(blob[:-1])

    def test_is_packed_negative(self):
        assert not packed.is_packed([(OP_FINALIZE,)])
        assert not packed.is_packed(b"xy")


# ---------------------------------------------------------------------------
# A packed source through compress_streams == the list it encodes.

NPROCS = 2


def _capture(source, nprocs):
    compiled = compile_minimpi(source)
    capture = StreamCaptureSink()
    run_compiled(compiled, nprocs, tracer=capture)
    return compiled, {r: capture.streams.get(r, []) for r in range(nprocs)}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(program(allow_functions=True), st.sampled_from([None, 1, 4]))
def test_packed_sources_match_list_path(source, window):
    compiled, streams = _capture(source, NPROCS)
    cfg = CypressConfig(window=window)
    want = _blobs(compress_streams(compiled.cst, streams, config=cfg), NPROCS)
    live = {r: packed.encode_stream(s) for r, s in streams.items()}
    blobs = {r: ps.to_bytes() for r, ps in live.items()}
    assert _blobs(
        compress_streams(compiled.cst, blobs, config=cfg), NPROCS
    ) == want, f"window={window}: packed blob diverged"
    assert _blobs(
        compress_streams(compiled.cst, live, config=cfg), NPROCS
    ) == want, f"window={window}: live PackedStream diverged"


RING = """
func main() {
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < 6; i = i + 1) {
    if (rank < size - 1) { mpi_send(rank + 1, 64, 1); }
    if (rank > 0) { mpi_recv(rank - 1, 64, 1); }
    mpi_allreduce(8);
  }
}
"""


def test_corrupt_opcode_blob_carries_index_and_quarantines_once(monkeypatch):
    compiled, streams = _capture(RING, 4)
    encoded = {r: packed.encode_stream(s) for r, s in streams.items()}
    # Rank 1's third loop-iteration marker becomes a branch exit: still a
    # marker code, so the blob decodes, but the walk finds a loop frame
    # where the stream claims an open branch.
    bad_at = [
        i for i, item in enumerate(streams[1]) if item[0] == OP_LOOP_ITER
    ][2]
    encoded[1].codes[bad_at] = OP_BRANCH_EXIT
    blobs = {r: ps.to_bytes() for r, ps in encoded.items()}

    with pytest.raises(StreamMismatchError, match="no open branch") as err:
        compress_streams(compiled.cst, blobs, strict=True)
    assert err.value.item_index == bad_at

    decodes = []
    real = packed.decode_stream
    monkeypatch.setattr(
        packed, "decode_stream",
        lambda source: decodes.append(1) or real(source),
    )
    comp = compress_streams(compiled.cst, blobs)
    assert len(decodes) == 4  # the quarantined rank is not decoded twice
    (entry,) = list(comp.quarantine)
    assert entry.rank == 1 and f"[stream item {bad_at}]" in entry.error
    assert entry.raw_stream == real(blobs[1])
    assert entry.events == packed.event_count(blobs[1])
    healthy = compress_streams(compiled.cst, streams)
    for rank in (0, 2, 3):
        assert serialize.dumps(
            merge_all([comp.ctt(rank)], nranks=4)
        ) == serialize.dumps(merge_all([healthy.ctt(rank)], nranks=4))
