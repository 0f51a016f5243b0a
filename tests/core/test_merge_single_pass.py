"""The single-pass inter-process merge against a naive pairwise reference.

``merge_all`` walks every rank CTT once into one accumulating tree
(``MergedCTT.add_rank``).  The reference below is the merge written the
slow, obvious way — one throw-away table per rank, combined pairwise,
statistics folded by sequential ``TimeStats.merge`` — and shares nothing
with the production loop but the payload containers ``serialize.dumps``
reads.  The single pass and the budget mode's ascending fold, on every
rank order, must serialize to the reference's bytes."""

import random
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.errors import MergeError  # noqa: E402
from repro.core.inter import (  # noqa: E402
    Group,
    MergedCTT,
    MergedVertex,
    merge_all,
)
from repro.core.intra import (  # noqa: E402
    CypressConfig,
    IntraProcessCompressor,
    compress_streams,
)
from repro.driver import run_compiled  # noqa: E402
from repro.mpisim.pmpi import StreamCaptureSink  # noqa: E402
from repro.static.cst import BRANCH, CALL, LOOP  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

ORDERS = ("ascending", "shuffled", "gapped")


# ---------------------------------------------------------------------------
# The reference.


def _seq_key(seq) -> tuple:
    return (seq.length, tuple(seq.terms))


def _rank_table(ctt) -> list[dict]:
    """Per vertex: ``{payload key: [(rank, payload)]}`` for one rank."""
    tables = []
    for v in ctt.vertices():
        table = {}
        if v.kind == LOOP and len(v.loop_counts):
            table[_seq_key(v.loop_counts)] = [(ctt.rank, v.loop_counts)]
        elif v.kind == BRANCH and len(v.visits):
            table[_seq_key(v.visits)] = [(ctt.rank, v.visits)]
        elif v.kind == CALL and v.records:
            key = tuple((r.key, _seq_key(r.occurrences)) for r in v.records)
            table[key] = [(ctt.rank, v.records)]
        tables.append(table)
    return tables


def _combine(a: list[dict], b: list[dict]) -> list[dict]:
    out = []
    for ta, tb in zip(a, b):
        merged = {key: list(members) for key, members in ta.items()}
        for key, members in tb.items():
            merged.setdefault(key, []).extend(members)
        out.append(merged)
    return out


def naive_merge(ctts) -> MergedCTT:
    tables = _rank_table(ctts[0])
    for ctt in ctts[1:]:
        tables = _combine(tables, _rank_table(ctt))
    result = MergedCTT(MergedVertex(ctts[0].root), len(ctts))
    for vertex, table in zip(result.vertices(), tables):
        for key, members in table.items():
            members.sort(key=lambda m: m[0])
            ranks = [rank for rank, _ in members]
            first = members[0][1]
            if vertex.kind == LOOP:
                group = Group(key, ranks, counts=first)
            elif vertex.kind == BRANCH:
                group = Group(key, ranks, visits=first)
            else:
                records = [r.copy() for r in first]
                for _, theirs in members[1:]:  # ascending rank order
                    for mine, other in zip(records, theirs):
                        mine.duration.merge(other.duration)
                        mine.pre_gap.merge(other.pre_gap)
                group = Group(key, ranks, records=records)
            vertex.groups[key] = group
    return result


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
    want = serialize.dumps(naive_merge(ctts))
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
        # out of order and across shard boundaries.
        w = WORKLOADS[name]
        compiled, streams = _capture(w.source, nprocs, w.defines(nprocs, 0.1))
        _check_all_paths(compiled.cst, streams, nprocs, order, seed=nprocs)


class TestAddRank:
    def _ctts(self, nprocs=4):
        w = WORKLOADS["fig11"]
        compiled, streams = _capture(w.source, nprocs, w.defines(nprocs, 0.3))
        comp = compress_streams(compiled.cst, streams)
        return [comp.ctt(r) for r in range(nprocs)]

    def test_from_rank_is_empty_tree_plus_add_rank(self):
        ctts = self._ctts()
        one = MergedCTT.from_rank(ctts[2], nranks=4).finalize()
        assert one.nranks_merged == 1
        assert serialize.dumps(one) == serialize.dumps(naive_merge([ctts[2]]))

    def test_joining_a_finalized_group_out_of_order(self):
        # add_rank after finalize() takes the eager stats path; arriving
        # descending it must still sort the rank list.
        ctts = self._ctts()
        acc = MergedCTT.from_rank(ctts[3]).finalize()
        for ctt in (ctts[1], ctts[2], ctts[0]):
            acc.add_rank(ctt)
        for vertex in acc.vertices():
            for group in vertex.groups.values():
                assert group.ranks == sorted(group.ranks)
        assert acc.nranks_merged == 4

    def test_sources_stay_untouched(self):
        ctts = self._ctts()
        before = [serialize.dumps(naive_merge([c])) for c in ctts]
        merge_all(ctts)
        assert [serialize.dumps(naive_merge([c])) for c in ctts] == before

    def test_different_program_rejected(self):
        ctts = self._ctts()
        compiled, streams = _capture("func main() { mpi_barrier(); }", 1)
        other = compress_streams(compiled.cst, streams).ctt(0)
        acc = MergedCTT.from_rank(ctts[0])
        with pytest.raises(MergeError, match="structural mismatch"):
            acc.add_rank(other)
        with pytest.raises(MergeError, match="structural mismatch"):
            merge_all([ctts[0], other])


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
