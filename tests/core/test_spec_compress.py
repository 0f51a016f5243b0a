"""The product against the spec where streams go wrong or parameters vary
(``tests/spec_compress.py``, paper §IV-A).

* Mutated streams: a marker dropped, an exit duplicated, an op with no
  leaf under the cursor, a recursion exit with no entry, a wildcard
  ``Irecv`` never completed before finalize.  The product — whole
  batches, and the live emitter drained a few items at a time — and
  the spec must reject the same streams at the same
  ``StreamMismatchError.item_index`` and accept the same ones with equal
  bytes.
* Every key field, alone, separates two records, and randomly varied
  parameters at fixed leaves commit alike under every window.
* A wildcard receive still pending inside the bounded window takes a
  place there but never matches, and is skipped over.
"""

import dataclasses
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import intra, serialize
from repro.core.errors import StreamMismatchError
from repro.core.inter import merge_all
from repro.core.intra import CypressConfig, IntraProcessCompressor
from repro.core.timing import HIST, MEANSTD
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
from helpers import replay_into  # noqa: E402
from spec_compress import SpecWalk, spec_compress  # noqa: E402

NPROCS = 4

MARKERS = (
    OP_LOOP_PUSH, OP_LOOP_ITER, OP_LOOP_POP, OP_BRANCH_ENTER,
    OP_BRANCH_EXIT, OP_RECURSE_ENTER, OP_RECURSE_EXIT,
)
EXITS = (OP_LOOP_POP, OP_BRANCH_EXIT, OP_RECURSE_EXIT)

WILDCARDS = """
func main() {
  var rank = mpi_comm_rank();
  if (rank == 0) {
    for (var i = 0; i < 6; i = i + 1) {
      var r = mpi_irecv(-1, 8, 0);
      mpi_wait(r);
      mpi_bcast(0, 8);
    }
  } else {
    if (rank < 3) { for (var i = 0; i < 3; i = i + 1) { mpi_send(0, 8, 0); } }
    for (var i = 0; i < 6; i = i + 1) { mpi_bcast(0, 8); }
  }
  mpi_finalize();
}
"""

RECURSION = """
func main() { f(4); mpi_finalize(); }
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


def _blob(ctt) -> bytes:
    return serialize.dumps(merge_all([ctt], nranks=NPROCS))


def _outcome(compress):
    """What compressing a stream came to: rejected at an item index, or
    accepted with the rank's container bytes."""
    try:
        ctt = compress()
    except StreamMismatchError as exc:
        return ("rejected", exc.item_index)
    return ("accepted", _blob(ctt))


def _batch(cst, rank, stream, window):
    comp = IntraProcessCompressor(cst, CypressConfig(window=window))
    comp.ingest_stream(rank, stream)
    return comp.ctt(rank)


def _live(cst, rank, stream, window):
    """The live emitter, drained three items at a time."""
    comp = IntraProcessCompressor(cst, CypressConfig(window=window))
    saved, intra.DRAIN_ITEMS = intra.DRAIN_ITEMS, 3
    try:
        replay_into({rank: stream}, comp)
    finally:
        intra.DRAIN_ITEMS = saved
    return comp.ctt(rank)


def _irecv(item) -> bool:
    return item[0] == OP_EVENT and item[1].op == "MPI_Irecv"


def _mutations(stream) -> list[str]:
    """The mutations that change ``stream``."""
    kinds = ["stray_op", "orphan_recurse_exit"]
    if any(item[0] in MARKERS for item in stream):
        kinds.append("drop_marker")
    if any(item[0] in EXITS for item in stream):
        kinds.append("duplicate_exit")
    if any(_irecv(item) for item in stream):
        kinds.append("unresolved_wildcard")
    return kinds


def _mutate(stream, kind, data, cst):
    """``stream`` with one mutation of ``kind`` at a drawn place."""
    stream = list(stream)

    def pick(test):
        return data.draw(st.sampled_from(
            [i for i, item in enumerate(stream) if test(item)]
        ))

    if kind == "drop_marker":
        del stream[pick(lambda item: item[0] in MARKERS)]
    elif kind == "duplicate_exit":
        i = pick(lambda item: item[0] in EXITS)
        stream.insert(i, stream[i])
    elif kind == "stray_op":
        # Any op of the program, or one it never calls, anywhere.
        ops = sorted({item[1].op for item in stream if item[0] == OP_EVENT})
        op = data.draw(st.sampled_from(ops + ["MPI_Scan"]))
        ev = CommEvent(op=op, rank=0, seq=0, peer=1, nbytes=8, req=10**6)
        stream.insert(data.draw(st.integers(0, len(stream))), (OP_EVENT, ev))
    elif kind == "orphan_recurse_exit":
        ids = sorted({0} | {n.ast_id for n in cst.preorder() if n.ast_id})
        item = (OP_RECURSE_EXIT, data.draw(st.sampled_from(ids)))
        stream.insert(data.draw(st.integers(0, len(stream))), item)
    else:  # unresolved_wildcard: an Irecv turned wildcard, its completion gone
        i = pick(_irecv)
        ev = stream[i][1]
        stream[i] = (OP_EVENT, dataclasses.replace(
            ev, peer=ANY_SOURCE, wildcard=True))
        for j in range(i + 1, len(stream)):
            if stream[j][0] == OP_REQ_COMPLETE and stream[j][1] == ev.req:
                del stream[j]
                break
    return stream


class TestMutatedStreams:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        st.one_of(
            program(allow_functions=True),
            st.sampled_from([WILDCARDS, RECURSION]),
        ),
        st.sampled_from([None, 1, 4]),
        st.data(),
    )
    def test_product_and_spec_reject_and_accept_alike(
        self, source, window, data
    ):
        compiled = compile_minimpi(source)
        capture = StreamCaptureSink()
        run_compiled(compiled, NPROCS, tracer=capture, max_steps=2_000_000)
        rank = data.draw(st.sampled_from(range(NPROCS)))
        stream = capture.streams.get(rank, [])
        if not stream or stream[-1][0] != OP_FINALIZE:
            stream = stream + [(OP_FINALIZE,)]
        kind = data.draw(st.sampled_from(_mutations(stream)))
        stream = _mutate(stream, kind, data, compiled.cst)
        cst = compiled.cst
        expected = _outcome(
            lambda: spec_compress(cst, stream, rank, window=window)
        )
        assert _outcome(lambda: _batch(cst, rank, stream, window)) == expected
        assert _outcome(lambda: _live(cst, rank, stream, window)) == expected

    @pytest.mark.parametrize("window", [None, 1, 4])
    def test_each_mutation_is_rejected_where_it_must_be(self, window):
        # The named failures, each at its own item.
        compiled = compile_minimpi(WILDCARDS)
        cst = compiled.cst
        capture = StreamCaptureSink()
        run_compiled(compiled, NPROCS, tracer=capture)
        stream = capture.streams[0]
        complete = next(
            i for i, item in enumerate(stream) if item[0] == OP_REQ_COMPLETE
        )
        pop = max(i for i, item in enumerate(stream) if item[0] == OP_LOOP_POP)
        assert stream[-1] == (OP_FINALIZE,)
        cases = {
            # Never completed: the rank's finalize is the offending item.
            "unresolved": (
                stream[:complete] + stream[complete + 1:], len(stream) - 2
            ),
            # A recursion exit with nothing entered.
            "orphan exit": ([(OP_RECURSE_EXIT, 1)] + stream, 0),
            # An op no leaf under the root takes.
            "stray op": (
                [(OP_EVENT, CommEvent(op="MPI_Scan", rank=0, seq=0))] + stream,
                0,
            ),
            # The loop's exit twice: the second finds the branch frame.
            "duplicate exit": (
                stream[:pop + 1] + stream[pop:], pop + 1
            ),
        }
        for name, (mutated, index) in cases.items():
            for compress in (
                lambda: spec_compress(cst, mutated, 0, window=window),
                lambda: _batch(cst, 0, mutated, window),
            ):
                with pytest.raises(StreamMismatchError) as info:
                    compress()
                assert info.value.item_index == index, name


# One loop visiting five leaves; the tests below drive it by hand.
LEAVES = """
func main() {
  var r[2];
  for (var i = 0; i < n; i = i + 1) {
    mpi_sendrecv(1, 8, 0, 1, 8, 0);
    r[0] = mpi_irecv(1, 8, 0);
    r[1] = mpi_isend(1, 8, 0);
    mpi_waitall(r, 2);
    mpi_bcast(0, 8);
  }
}
"""
_LEAVES = compile_minimpi(LEAVES)
_LOOP = next(n.ast_id for n in _LEAVES.cst.preorder() if n.kind == "loop")
_OPS = ["MPI_Sendrecv", "MPI_Irecv", "MPI_Isend", "MPI_Waitall", "MPI_Bcast"]

# The key fields and a few values each; a base event takes the first.
FIELDS = {
    "peer": [1, 3, 0],
    "peer2": [NO_PEER, 1, 3],
    "tag": [0, 1],
    "tag2": [0, 1],
    "nbytes": [8, 16],
    "nbytes2": [0, 8],
    "comm": [0, 1],
    "root": [-1, 0],
    "result_comm": [-1, 2],
}


def _stream(iterations):
    """Items for ``iterations`` — per iteration one field dict per leaf
    and the (source, nbytes, wildcard) of its Irecv."""
    items = [(OP_LOOP_PUSH, _LOOP)]
    seq = 0
    for fields, (source, nbytes, wildcard) in iterations:
        items.append((OP_LOOP_ITER, _LOOP))
        req = 2 * seq
        for op, kw in zip(_OPS, fields):
            kw = dict(kw)
            if op == "MPI_Irecv":
                kw.update(req=req, wildcard=wildcard)
                if wildcard:
                    kw["peer"] = ANY_SOURCE
            elif op == "MPI_Isend":
                kw["req"] = req + 1
            elif op == "MPI_Waitall":
                kw["reqs"] = (req, req + 1)
            items.append((OP_EVENT, CommEvent(
                op=op, rank=2, seq=seq, time_start=10.0 * seq,
                duration=1.0 + seq % 3, **kw,
            )))
            seq += 1
            if op == "MPI_Waitall":
                items.append((OP_REQ_COMPLETE, req, source, nbytes, 0.0))
                items.append((OP_REQ_COMPLETE, req + 1, 1, 8, 0.0))
    items += [(OP_LOOP_POP, _LOOP), (OP_FINALIZE,)]
    return items


def _agree(stream, **config):
    comp = IntraProcessCompressor(_LEAVES.cst, CypressConfig(**config))
    comp.ingest_stream(2, stream)
    spec = spec_compress(_LEAVES.cst, stream, 2, **config)
    assert _blob(comp.ctt(2)) == _blob(spec)
    return spec


_base = {name: values[0] for name, values in FIELDS.items()}
# A base parameter set with at most one field moved off it.
_fields = st.one_of(
    st.just(_base),
    st.sampled_from(list(FIELDS)).flatmap(
        lambda name: st.sampled_from(FIELDS[name]).map(
            lambda value: {**_base, name: value}
        )
    ),
)
_iteration = st.tuples(
    st.tuples(*[_fields] * len(_OPS)),
    st.tuples(st.sampled_from([1, 3]), st.sampled_from([8, 16]), st.booleans()),
)


class TestParameters:
    @pytest.mark.parametrize("name", list(FIELDS))
    def test_every_key_field_alone_separates_records(self, name):
        # base, moved, base: two records at every leaf, in the product
        # as in the spec, whichever field moved.
        moved = {**_base, name: FIELDS[name][1]}
        plain = (1, 8, False)
        stream = _stream([
            ([_base] * 5, plain), ([moved] * 5, plain), ([_base] * 5, plain),
        ])
        for window in (None, 2):
            spec = _agree(stream, window=window)
            leaves = [v for v in spec.vertices() if v.records]
            assert [len(v.records) for v in leaves] == [2] * 5, (name, window)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(_iteration, min_size=1, max_size=10),
        st.sampled_from([None, 1, 3]),
        st.sampled_from([MEANSTD, HIST]),
        st.booleans(),
    )
    def test_random_parameters_commit_alike(
        self, iterations, window, timing_mode, relative
    ):
        _agree(
            _stream(iterations), window=window, timing_mode=timing_mode,
            relative_ranks=relative,
        )


# Rank 0 posts Irecv(1), Irecv(ANY), Irecv(1) from one leaf, then waits:
# the third is committed while the second is still pending.
PENDING_IN_WINDOW = """
func main() {
  var rank = mpi_comm_rank();
  var r[3];
  if (rank == 0) {
    for (var i = 0; i < 4; i = i + 1) {
      for (var j = 0; j < 3; j = j + 1) {
        r[j] = mpi_irecv(1 - 2 * (j % 2), 8, 0);
      }
      mpi_waitall(r, 3);
    }
  } else {
    for (var i = 0; i < 12; i = i + 1) { mpi_send(0, 8, 0); }
  }
  mpi_finalize();
}
"""


class TestPendingInsideTheWindow:
    @pytest.mark.parametrize("window,records", [(1, 9), (2, 2), (4, 2), (None, 2)])
    def test_a_pending_record_is_skipped_not_matched(self, window, records):
        compiled = compile_minimpi(PENDING_IN_WINDOW)
        capture = StreamCaptureSink()
        run_compiled(compiled, 2, tracer=capture)
        stream = capture.streams[0]
        comp = IntraProcessCompressor(compiled.cst, CypressConfig(window=window))
        comp.ingest_stream(0, stream)
        walk = SpecWalk(compiled.cst, 0, window=window)
        walk.feed(stream)
        assert _blob(comp.ctt(0)) == _blob(walk.ctt)
        (irecv,) = [v for v in walk.ctt.vertices() if v.op == "MPI_Irecv"]
        # In the first iteration the third Irecv arrives while the
        # second is pending.  Under window 1 the pending record fills the
        # window and the third opens a record; from window 2 on it is
        # skipped over and the third lands on the first: one record for
        # Irecv(1), one for the resolved wildcards.
        assert len(irecv.records) == records
