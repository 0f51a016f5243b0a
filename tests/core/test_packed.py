"""Packed event codec: round-trip properties and wire-format hardening.

The packed encoding is the server wire format and the input of
``ingest_runs``; the differential harness proves byte-identity of the
*compressed output*, while these tests pin the codec itself: ``decode_stream(encode_stream(s).to_bytes())``
must reproduce the capture list exactly for every opcode, every sentinel
peer, every int64 boundary value, and empty/huge variable-length tuples.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import packed
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
)

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
    # columns_of(PackedStream) skips the blob round-trip; both views must
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


def test_param_window_layout_is_injective_prefix():
    # The ingest fast path compares EVENT_PARAMS_OFF..EVENT_PARAMS_END
    # raw bytes to prove params equality.  Two events differing in any
    # key field must differ inside the window; ones differing only in
    # time/rank/seq/req must NOT (that is what makes the cache useful).
    base = dict(op="MPI_Send", rank=0, seq=0, peer=3, nbytes=64, tag=9)

    def window(ev):
        ps = packed.PackedStream()
        ps.append_event(ev)
        return bytes(ps.events[packed.EVENT_PARAMS_OFF:packed.EVENT_PARAMS_END])

    ref = window(CommEvent(**base))
    assert window(CommEvent(**{**base, "rank": 7, "seq": 5, "time_start": 2.0,
                               "duration": 1.0, "req": 11})) == ref
    for field, value in [
        ("peer", 4), ("nbytes", 65), ("tag", 10), ("peer2", 1), ("tag2", 1),
        ("nbytes2", 1), ("comm", 1), ("root", 0), ("result_comm", 0),
        ("wildcard", True), ("reqs", (1,)),
    ]:
        assert window(CommEvent(**{**base, field: value})) != ref

    assert struct.calcsize("<dd") == 16
    assert packed.EVENT_TIMES_OFF == packed.EVENT_PARAMS_END
