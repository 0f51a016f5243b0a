"""The single-pass inter-process merge against the naive §IV-B spec.

``merge_all`` walks every rank CTT once, in ascending rank order, into
one accumulating tree (``MergedCTT.add_rank``).  ``tests/spec_merge.py``
is the merge written the slow, obvious way — one throw-away table per
rank, combined pairwise, statistics folded by sequential
``TimeStats.merge`` — and shares nothing with the production loop but
the payload containers ``serialize.dumps`` reads.  The single pass and
the budget mode's ascending fold, on every rank order, must serialize
to the spec's bytes."""

import random
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from spec_merge import spec_merge  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.errors import MergeError  # noqa: E402
from repro.core.inter import MergedCTT, MergedVertex, merge_all  # noqa: E402
from repro.core.intra import (  # noqa: E402
    CypressConfig,
    IntraProcessCompressor,
    compress_streams,
)
from repro.driver import run_compiled  # noqa: E402
from repro.mpisim.pmpi import StreamCaptureSink  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

ORDERS = ("ascending", "shuffled", "gapped")


# ---------------------------------------------------------------------------
# The production paths.


def _capture(source, nprocs, defines=None):
    compiled = compile_minimpi(source)
    capture = StreamCaptureSink()
    run_compiled(compiled, nprocs, defines=defines, tracer=capture)
    return compiled, capture.streams


def _ordered(ranks: list[int], order: str, seed: int) -> list[int]:
    rng = random.Random(seed)
    if order == "shuffled":
        ranks = list(ranks)
        rng.shuffle(ranks)
    elif order == "gapped":  # quarantine took some ranks out
        drop = set(rng.sample(ranks, rng.randint(1, len(ranks) - 1)))
        ranks = [r for r in ranks if r not in drop]
    return ranks


def _budget_fold(cst, streams, ranks, nprocs) -> MergedCTT:
    """The budget mode's ascending incremental fold, ranks completing in
    the given order (the barrier re-orders them)."""
    comp = IntraProcessCompressor(
        cst, config=CypressConfig(memory_budget_bytes=1)
    )
    comp.enable_incremental_fold(nranks=nprocs, domain=sorted(ranks))
    try:
        for rank in ranks:
            comp.ingest_stream(rank, streams[rank])
            comp.seal_rank(rank)
        return comp.merged(nranks=nprocs, ranks=ranks)
    finally:
        comp.close_spill()


def _check_all_paths(cst, streams, nprocs, order, seed):
    ranks = _ordered(sorted(streams), order, seed)
    ctts_of = compress_streams(cst, streams).ctt
    ctts = [ctts_of(r) for r in ranks]
    want = serialize.dumps(spec_merge(ctts, nranks=nprocs))
    got = {
        "single pass": merge_all(ctts, nranks=nprocs),
        "budget fold": _budget_fold(cst, streams, ranks, nprocs),
    }
    for path, merged in got.items():
        assert merged.nranks_merged == len(ranks), path
        assert serialize.dumps(merged) == want, f"{path} / {order}"


class TestAgainstNaiveReference:
    @settings(**SETTINGS)
    @given(program(allow_functions=True), st.sampled_from([4, 8]),
           st.sampled_from(ORDERS), st.integers(0, 2**16))
    def test_random_programs(self, source, nprocs, order, seed):
        compiled, streams = _capture(source, nprocs)
        assume(streams)  # a program with no MPI events has no trace
        _check_all_paths(compiled.cst, streams, nprocs, order, seed)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("name,nprocs", [("mg", 16), ("sp", 9)])
    def test_rank_dependent_workloads(self, name, nprocs, order):
        # Many groups per vertex: ranks join groups founded by others,
        # listed in any order.
        w = WORKLOADS[name]
        compiled, streams = _capture(w.source, nprocs, w.defines(nprocs, 0.1))
        _check_all_paths(compiled.cst, streams, nprocs, order, seed=nprocs)


class TestAddRank:
    def _ctts(self, nprocs=4):
        w = WORKLOADS["fig11"]
        compiled, streams = _capture(w.source, nprocs, w.defines(nprocs, 0.3))
        comp = compress_streams(compiled.cst, streams)
        return [comp.ctt(r) for r in range(nprocs)]

    @staticmethod
    def _empty(ctts) -> MergedCTT:
        return MergedCTT(MergedVertex(ctts[0].root), 0)

    def test_one_rank_matches_the_spec(self):
        ctts = self._ctts()
        one = self._empty(ctts).add_rank(ctts[2], nranks=4).finalize()
        assert one.nranks_merged == 1
        assert serialize.dumps(one) == serialize.dumps(spec_merge([ctts[2]]))

    def test_joining_a_finalized_group_out_of_order(self):
        # A fold finalizes rank 3's groups; rank 1 arriving after it is
        # refused before anything moves.
        ctts = self._ctts()
        acc = self._empty(ctts).fold_rank(ctts[3])
        before = serialize.dumps(acc)
        with pytest.raises(MergeError, match="rank 1 cannot join after rank 3"):
            acc.add_rank(ctts[1])
        assert acc.nranks_merged == 1
        assert serialize.dumps(acc) == before

    def test_rank_merged_twice_is_refused(self):
        c0, c1, c2, c3 = self._ctts()
        with pytest.raises(MergeError, match="rank 1 "):
            merge_all([c0, c1, c1, c2, c3], nranks=4)
        with pytest.raises(MergeError, match="rank 1 "):
            spec_merge([c0, c1, c1, c2, c3])

    def test_each_fold_matches_the_spec(self):
        # Every fold reopens the groups the last finalize closed.
        ctts = self._ctts()
        acc = self._empty(ctts)
        for k, ctt in enumerate(ctts):
            acc.fold_rank(ctt, 4)
            assert serialize.dumps(acc) == serialize.dumps(
                spec_merge(ctts[: k + 1])
            ), f"after rank {k}"

    def test_sources_stay_untouched(self):
        ctts = self._ctts()
        before = [serialize.dumps(spec_merge([c])) for c in ctts]
        merge_all(ctts)
        assert [serialize.dumps(spec_merge([c])) for c in ctts] == before

    def test_different_program_rejected(self):
        ctts = self._ctts()
        compiled, streams = _capture("func main() { mpi_barrier(); }", 1)
        other = compress_streams(compiled.cst, streams).ctt(0)
        with pytest.raises(MergeError, match="structural mismatch"):
            self._empty(ctts).add_rank(other)
        for merge in (merge_all, spec_merge):
            with pytest.raises(MergeError, match="structural mismatch"):
                merge([other, ctts[1]])


class TestCanonicalAndCached:
    def test_roundtrip_is_canonical(self):
        # dumps() -> loads() -> dumps() must reach a fixed point after one
        # cycle: group order in the file is canonical (by lowest member
        # rank), not arrival order.  (The first cycle may shrink the
        # string table — loop/branch names are not serialized — so the
        # fixed point is asserted on the reloaded form.)
        w = WORKLOADS["cg"]
        compiled, streams = _capture(w.source, 8, w.defines(8, 0.2))
        comp = compress_streams(compiled.cst, streams)
        blob = serialize.dumps(comp.merged(nranks=8))
        blob2 = serialize.dumps(serialize.loads(blob))
        assert serialize.dumps(serialize.loads(blob2)) == blob2

    def test_run_merge_is_cached(self):
        from repro.core.api import run_cypress

        w = WORKLOADS["cg"]
        run = run_cypress(w.source, 8, defines=w.defines(8, 0.2))
        merged = run.merge()
        assert merged.nranks_merged == 8
        # cached — second call returns the same object, whatever name
        # benchmarks/e2e passes
        assert run.merge("tree") is merged
