"""The hot path against the spec (docs/INTERNALS.md §5).

The monomorphic dispatch tables, the inline commit with its per-leaf
record caches, the live buffers, the packed codec and the memory budget
are pure optimizations: every route through the product must serialize
a trace byte-identical to the naive §IV-A compressor in
``tests/spec_compress.py``.
"""

import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import packed, serialize
from repro.core.ctt import CTT
from repro.core.inter import merge_all
from repro.core.intra import (
    CypressConfig,
    IntraProcessCompressor,
    compress_streams,
)
from repro.core.timing import HIST, MEANSTD
from repro.driver import run_compiled
from repro.mpisim.events import CommEvent
from repro.mpisim.pmpi import (
    OP_BRANCH_ENTER,
    OP_BRANCH_EXIT,
    OP_EVENT,
    OP_FINALIZE,
    OP_LOOP_ITER,
    OP_LOOP_POP,
    OP_LOOP_PUSH,
    MultiSink,
    StreamCaptureSink,
)
from repro.static.cst import CALL, LOOP
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from spec_compress import (  # noqa: E402
    branch_groups,
    find_child,
    spec_compress,
    spec_compress_streams,
)

SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _blob(ctts, nranks: int) -> bytes:
    return serialize.dumps(merge_all(list(ctts), nranks=nranks))


def _product_blob(comp, ranks, nranks: int) -> bytes:
    return _blob([comp.ctt(r) for r in ranks], nranks)


def _assert_all_modes_identical(
    source: str,
    nprocs: int,
    defines: dict[str, int] | None = None,
    **config,
) -> bytes | None:
    """Trace once with the live compressor and a stream capture
    attached; assert that inline compression, ``compress_streams`` of
    the capture as lists and as packed blobs, and the same under a
    1-byte memory budget all serialize what the spec does."""
    compiled = compile_minimpi(source)
    live = IntraProcessCompressor(compiled.cst, CypressConfig(**config))
    capture = StreamCaptureSink()
    run_compiled(
        compiled, nprocs, defines=defines,
        tracer=MultiSink([live, capture]), max_steps=2_000_000,
    )
    streams = capture.streams
    ranks = sorted(streams)
    if not ranks:  # nothing traced
        return None
    expected = _blob(spec_compress_streams(compiled.cst, streams, **config), nprocs)
    assert _product_blob(live, ranks, nprocs) == expected, "inline diverges"
    deferred = compress_streams(
        compiled.cst, streams, config=CypressConfig(**config)
    )
    assert _product_blob(deferred, ranks, nprocs) == expected, (
        "compress_streams diverges"
    )
    blobs = {r: packed.encode_stream(s).to_bytes() for r, s in streams.items()}
    from_packed = compress_streams(
        compiled.cst, blobs, config=CypressConfig(**config)
    )
    assert _product_blob(from_packed, ranks, nprocs) == expected, (
        "packed streams diverge"
    )
    budgeted = compress_streams(
        compiled.cst, streams,
        config=CypressConfig(memory_budget_bytes=1, **config), nranks=nprocs,
    )
    blob = serialize.dumps(budgeted.merged(nranks=nprocs))
    budgeted.close_spill()
    assert blob == expected, "1-byte budget diverges"
    return expected


class TestFastPathProperty:
    @settings(**SETTINGS)
    @given(
        program(allow_functions=True),
        st.sampled_from([None, 1, 4]),
        st.sampled_from([MEANSTD, HIST]),
        st.booleans(),
    )
    def test_random_programs_all_modes_byte_identical(
        self, source, window, timing_mode, relative
    ):
        _assert_all_modes_identical(
            source, 2, window=window, timing_mode=timing_mode,
            relative_ranks=relative,
        )

    @settings(**SETTINGS)
    @given(program(allow_functions=True, allow_subcomms=True), st.booleans())
    def test_subcomm_programs_all_modes_byte_identical(self, source, relative):
        _assert_all_modes_identical(source, 4, relative_ranks=relative)


class TestFastPathWorkloads:
    def test_wildcard_completions_byte_identical(self):
        # farm is the wildcard workload: the master posts
        # MPI_Irecv(ANY_SOURCE) and compression is deferred to request
        # completion — the pending path must agree with the spec in
        # every mode (in a captured stream the completed peer travels in
        # the OP_REQ_COMPLETE entry, not in the shared event object).
        w = WORKLOADS["farm"]
        nprocs = 4
        w.check_procs(nprocs)
        for window in (None, 1, 4):
            _assert_all_modes_identical(
                w.source, nprocs, w.defines(nprocs, 1.0), window=window
            )

    def test_recursion_byte_identical(self):
        # amr exercises the pseudo-loop recursion frames.
        w = WORKLOADS["amr"]
        nprocs = 9
        w.check_procs(nprocs)
        for window in (None, 1):
            _assert_all_modes_identical(
                w.source, nprocs, w.defines(nprocs, 1.0), window=window
            )


INLINED_TWICE = """
func h(rank) {
  if (rank == 0) { mpi_bcast(0, 8); } else { mpi_bcast(0, 16); }
}
func main() {
  var rank = mpi_comm_rank();
  h(rank);
  h(rank);
}
"""


class TestFindGroupWrapAround:
    def test_wrap_around_between_inlined_copies(self):
        # Two inlined copies of h() give the root two branch groups with
        # the SAME ast_id at child indices (0,1) and (2,3); the ordered
        # wrap-around lookup must pick by search position.
        compiled = compile_minimpi(INLINED_TWICE)
        groups = CTT(compiled.cst, 0).root.group_by_ast_id
        assert len(groups) == 1
        ast_id = next(iter(groups))
        first, second = groups[ast_id]
        assert (first.first_index, second.first_index) == (0, 2)
        assert (first.number, second.number) == (0, 1)
        # The first copy, then the second, then past the last copy the
        # lookup wraps to the first again.
        stream = []
        for seq, path in enumerate([0, 1, 0]):
            stream += [
                (OP_BRANCH_ENTER, ast_id, path),
                (OP_EVENT, CommEvent(
                    op="MPI_Bcast", rank=0, seq=seq, root=0, nbytes=8)),
                (OP_BRANCH_EXIT, ast_id),
            ]
        comp = IntraProcessCompressor(compiled.cst)
        comp.ingest_stream(0, stream)
        root = comp.ctt(0).root
        assert root.group_by_ast_id[ast_id] == (first, second)
        assert root.group_visits == [2, 1]
        kids = root.children
        assert kids[first.paths[0]].visits.to_list() == [0, 1]
        assert kids[first.paths[1]].visits.to_list() == []
        assert kids[second.paths[1]].visits.to_list() == [0]
        spec = spec_compress(compiled.cst, stream)
        assert _blob([comp.ctt(0)], 1) == _blob([spec], 1)

    def test_generic_and_monomorphic_lookups_agree(self):
        # The shape's dispatch tables against the spec's scans over
        # ``children``, at every start position of every vertex of every
        # workload's tree (and the two-copy tree above).
        sources = [w.source for w in WORKLOADS.values()] + [INLINED_TWICE]
        for source in sources:
            for v in CTT(compile_minimpi(source).cst, 0).vertices():
                groups = sorted(
                    (g for gs in v.group_by_ast_id.values() for g in gs),
                    key=lambda g: g.number,
                )
                assert [g.number for g in groups] == list(
                    range(len(v.group_visits)))
                assert [
                    (g.ast_id, g.first_index, g.last_index,
                     {path: v.children[pos] for path, pos in g.paths.items()})
                    for g in groups
                ] == branch_groups(v)
                for ast_id, lst in v.group_by_ast_id.items():
                    assert lst == tuple(g for g in groups if g.ast_id == ast_id)
                for start in range(len(v.children) + 1):
                    for ast_id in v.loop_child_by_ast_id:
                        child, idx = find_child(
                            v, lambda c: c.kind == LOOP and c.ast_id == ast_id,
                            start,
                        )
                        assert v.find_loop_child(ast_id, start) == (idx, child)
                    for op, positions in v.call_children_by_op.items():
                        at = [pos for pos in positions if pos >= start]
                        idx = at[0] if at else positions[0]
                        assert find_child(
                            v, lambda c: c.kind == CALL and c.op == op, start
                        ) == (v.children[idx], idx)


LOOP_SEND = """
func main() {
  for (var i = 0; i < n; i = i + 1) {
    mpi_send(1, 8, 7);
  }
}
"""


def _leaf(ctt):
    return next(v for v in ctt.root.preorder() if v.records is not None)


def _drive(sink, loop_id, payloads, rank=0):
    emit = sink.stream(rank)
    emit((OP_LOOP_PUSH, loop_id))
    for seq, nbytes in enumerate(payloads):
        emit((OP_LOOP_ITER, loop_id))
        emit((OP_EVENT, CommEvent(
            op="MPI_Send", rank=rank, seq=seq, peer=1, tag=7, nbytes=nbytes)))
    emit((OP_LOOP_POP, loop_id))
    emit((OP_FINALIZE,))
    return sink


class TestKeyInterning:
    def _compile(self):
        compiled = compile_minimpi(LOOP_SEND)
        loop_id = next(
            n.ast_id for n in compiled.cst.preorder() if n.kind == "loop"
        )
        return compiled, loop_id

    def _both(self, payloads, rank=0, **config):
        """The product's and the spec's CTT for one hand-driven rank."""
        compiled, loop_id = self._compile()
        comp = _drive(
            IntraProcessCompressor(compiled.cst, CypressConfig(**config)),
            loop_id, payloads, rank,
        )
        stream = _drive(StreamCaptureSink(), loop_id, payloads, rank).streams
        return comp.ctt(rank), spec_compress(
            compiled.cst, stream[rank], rank, **config
        )

    def test_field_change_invalidates_cache(self):
        # 8,8,16,8: the nbytes change must miss the params cache and open
        # a second record; the fourth event re-merges into the first
        # (unbounded keyed merge) even though the cache was invalidated.
        fast, spec = self._both([8, 8, 16, 8])
        assert [r.length for r in _leaf(fast).records] == [3, 1]
        assert _blob([fast], 1) == _blob([spec], 1)

    def test_windowed_config_does_not_reuse_cached_record(self):
        # With a bounded window the cached record must NOT be reused
        # blindly: A A B A under window=1 opens a fresh record for the
        # final A (the B pushed the first A out of the window).
        for ctt in self._both([8, 8, 16, 8], window=1):
            assert [r.length for r in _leaf(ctt).records] \
                == [2, 1, 1]

    def test_relative_ranks_affect_interned_keys(self):
        # The interning cache lives on the (per-rank) CTT leaf, but the
        # key it caches still depends on the config: rank 2 sending to
        # rank 1 stores ("rel", -1) with relative encoding and
        # ("abs", 1) without — in the product and in the spec.
        keys = {}
        for relative in (True, False):
            fast, spec = self._both([8, 8], rank=2, relative_ranks=relative)
            (record,) = _leaf(fast).records
            (expected,) = _leaf(spec).records
            assert record.key == expected.key
            keys[relative] = record.key
        assert keys[True][1] == ("rel", -1)
        assert keys[False][1] == ("abs", 1)
