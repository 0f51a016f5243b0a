"""Fast-path equivalence (docs/INTERNALS.md §5).

The monomorphic dispatch tables, the per-leaf key-interning cache and
the batched stream ingestion are pure optimizations: every one must
produce a serialized trace byte-identical
to the generic reference path (``CypressConfig(fastpath=False)``).
"""

import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import serialize
from repro.core.ctt import CTT
from repro.core.inter import merge_all
from repro.core.intra import (
    CypressConfig,
    IntraProcessCompressor,
    compress_streams,
)
from repro.driver import run_compiled
from repro.mpisim.events import CommEvent
from repro.mpisim.pmpi import MultiSink, StreamCaptureSink
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS

sys.path.insert(0, "tests")
from generators import program  # noqa: E402

SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _blob(compressor, nprocs: int) -> bytes:
    return serialize.dumps(
        merge_all([compressor.ctt(r) for r in range(nprocs)])
    )


def _assert_all_modes_identical(
    source: str,
    nprocs: int,
    window: int | None,
    defines: dict[str, int] | None = None,
) -> bytes:
    """Trace once with the reference and fast-path compressors plus a
    stream capture attached; assert the inline fast path and deferred
    batched compression both match the reference byte-for-byte."""
    compiled = compile_minimpi(source)
    ref = IntraProcessCompressor(
        compiled.cst, CypressConfig(window=window, fastpath=False)
    )
    fast = IntraProcessCompressor(compiled.cst, CypressConfig(window=window))
    capture = StreamCaptureSink()
    run_compiled(
        compiled, nprocs, defines=defines,
        tracer=MultiSink([ref, fast, capture]), max_steps=2_000_000,
    )
    expected = _blob(ref, nprocs)
    assert _blob(fast, nprocs) == expected, "inline fast path diverges"
    deferred = compress_streams(
        compiled.cst, capture.streams, config=CypressConfig(window=window)
    )
    assert _blob(deferred, nprocs) == expected, "batched stream path diverges"
    return expected


class TestFastPathProperty:
    @settings(**SETTINGS)
    @given(program(allow_functions=True), st.sampled_from([None, 1, 4]))
    def test_random_programs_all_modes_byte_identical(self, source, window):
        _assert_all_modes_identical(source, nprocs=2, window=window)

    @settings(**SETTINGS)
    @given(program(allow_functions=True, allow_subcomms=True))
    def test_subcomm_programs_all_modes_byte_identical(self, source):
        _assert_all_modes_identical(source, nprocs=4, window=None)


class TestFastPathWorkloads:
    def test_wildcard_completions_byte_identical(self):
        # farm is the wildcard workload: the master posts
        # MPI_Irecv(ANY_SOURCE) and compression is deferred to request
        # completion — the pending path must behave identically in all
        # three modes (in a captured stream the completed peer travels
        # in the OP_REQ_COMPLETE entry, not in the shared event object).
        w = WORKLOADS["farm"]
        nprocs = 4
        w.check_procs(nprocs)
        for window in (None, 1):
            _assert_all_modes_identical(
                w.source, nprocs, window, defines=w.defines(nprocs, 1.0)
            )

    def test_recursion_byte_identical(self):
        # amr exercises the pseudo-loop recursion frames.
        w = WORKLOADS["amr"]
        nprocs = 9
        w.check_procs(nprocs)
        _assert_all_modes_identical(
            w.source, nprocs, None, defines=w.defines(nprocs, 1.0)
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
        # wrap-around scan must pick by search position.
        compiled = compile_minimpi(INLINED_TWICE)
        root = CTT(compiled.cst, 0).root
        groups = root.group_by_ast_id
        assert len(groups) == 1
        ast_id = next(iter(groups))
        first, second = groups[ast_id]
        assert (first.first_index, second.first_index) == (0, 2)
        # Forward scan from the start finds the first copy...
        assert root.find_group(ast_id, 0) is first
        # ...after the first copy executed, the second...
        assert root.find_group(ast_id, first.last_index + 1) is second
        # ...and past the last copy it wraps to the first again.
        assert root.find_group(ast_id, second.last_index + 1) is first
        assert root.find_group(ast_id, len(root.children)) is first
        assert root.find_group(ast_id + 999, 0) is None

    def test_generic_and_monomorphic_lookups_agree(self):
        from repro.static.cst import BRANCH
        compiled = compile_minimpi(INLINED_TWICE)
        root = CTT(compiled.cst, 0).root
        ast_id = next(iter(root.group_by_ast_id))
        groups = root.group_by_ast_id[ast_id]
        # The cursor only ever searches from group boundaries (the search
        # position sits just past the previously executed structure), so
        # agreement is asserted at boundary starts.
        boundaries = {0, len(root.children)} | {
            g.last_index + 1 for g in groups
        }
        for start in sorted(boundaries):
            hit = root.find_child(
                lambda c: c.kind == BRANCH and c.ast_id == ast_id, start
            )
            group = root.find_group(ast_id, start)
            assert hit is not None and group is not None
            # The generic scan lands on a vertex inside the group the
            # monomorphic lookup returns (the group spans both paths).
            assert hit[0] in group.paths.values()


LOOP_SEND = """
func main() {
  for (var i = 0; i < n; i = i + 1) {
    mpi_send(1, 8, 7);
  }
}
"""


def _leaf(compressor, rank=0):
    return next(
        v for v in compressor.ctt(rank).root.preorder() if v.records is not None
    )


def _drive(compressor, loop_id, payloads, rank=0):
    compressor.on_loop_push(rank, loop_id)
    for seq, nbytes in enumerate(payloads):
        compressor.on_loop_iter(rank, loop_id)
        compressor.on_event(rank, CommEvent(
            op="MPI_Send", rank=rank, seq=seq, peer=1, tag=7, nbytes=nbytes))
    compressor.on_loop_pop(rank, loop_id)
    compressor.on_finalize(rank)


class TestKeyInterning:
    def _loop_id(self, compiled):
        return next(
            n.ast_id for n in compiled.cst.preorder() if n.kind == "loop"
        )

    def test_field_change_invalidates_cache(self):
        # 8,8,16,8: the nbytes change must miss the params cache and open
        # a second record; the fourth event re-merges into the first
        # (unbounded keyed merge) even though the cache was invalidated.
        compiled = compile_minimpi(LOOP_SEND)
        loop_id = self._loop_id(compiled)
        fast = IntraProcessCompressor(compiled.cst)
        _drive(fast, loop_id, [8, 8, 16, 8])
        leaf = _leaf(fast)
        assert len(leaf.records) == 2
        assert [len(r.occurrences) for r in leaf.records] == [3, 1]
        ref = IntraProcessCompressor(
            compiled.cst, CypressConfig(fastpath=False))
        _drive(ref, loop_id, [8, 8, 16, 8])
        assert _blob(fast, 1) == _blob(ref, 1)

    def test_windowed_config_does_not_reuse_cached_record(self):
        # With a bounded window the cached record must NOT be reused
        # blindly: A A B A under window=1 opens a fresh record for the
        # final A (the B pushed the first A out of the window).
        compiled = compile_minimpi(LOOP_SEND)
        loop_id = self._loop_id(compiled)
        for config in (CypressConfig(window=1),
                       CypressConfig(window=1, fastpath=False)):
            comp = IntraProcessCompressor(compiled.cst, config)
            _drive(comp, loop_id, [8, 8, 16, 8])
            assert [len(r.occurrences) for r in _leaf(comp).records] \
                == [2, 1, 1], f"fastpath={config.fastpath}"

    def test_relative_ranks_affect_interned_keys(self):
        # The interning cache lives on the (per-rank) CTT leaf, but the
        # key it caches still depends on the config: rank 2 sending to
        # rank 1 stores ("rel", -1) with relative encoding and
        # ("abs", 1) without.
        compiled = compile_minimpi(LOOP_SEND)
        loop_id = self._loop_id(compiled)
        keys = {}
        for relative in (True, False):
            for fastpath in (True, False):
                comp = IntraProcessCompressor(compiled.cst, CypressConfig(
                    relative_ranks=relative, fastpath=fastpath))
                _drive(comp, loop_id, [8, 8], rank=2)
                (record,) = _leaf(comp, rank=2).records
                keys[(relative, fastpath)] = record.key
        assert keys[(True, True)] == keys[(True, False)]
        assert keys[(False, True)] == keys[(False, False)]
        assert keys[(True, True)] != keys[(False, True)]
        assert keys[(True, True)][1] == ("rel", -1)
        assert keys[(False, True)][1] == ("abs", 1)
