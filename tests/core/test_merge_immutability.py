"""Regression guards: inter-process merging — one pass or a fold at a
time — must never mutate the per-rank CTTs (groups copy records lazily
on first stats merge)."""

import copy
import sys

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.core.inter import (  # noqa: E402
    MergedCTT,
    MergedVertex,
    merge_all,
    payload_key,
)
from tests.record_fields import duration, occurrences

SRC = """
func main() {
  mpi_init();
  for (var i = 0; i < 8; i = i + 1) { mpi_allreduce(64); }
  mpi_finalize();
}
"""


def snapshot(ctt):
    out = []
    for v in ctt.preorder():
        if v.records:
            out.append(
                [
                    (r.key, occurrences(r).to_list(), duration(r).count,
                     duration(r).mean)
                    for r in v.records
                ]
            )
        if v.loop_counts is not None:
            out.append(v.loop_counts.to_list())
    return out


class TestMergeImmutability:
    def test_single_merge_leaves_sources_intact(self):
        _, rec, cyp, _ = run_traced(SRC, 6)
        ctts = [cyp.ctt(r) for r in range(6)]
        before = [snapshot(c) for c in ctts]
        merge_all(ctts)
        after = [snapshot(c) for c in ctts]
        assert before == after

    def test_fold_leaves_sources_intact(self):
        # Each fold finalizes; the next rank reopens the group from a
        # record list borrowed from rank 0's CTT, which must be copied
        # before rank 1's statistics merge into it.
        _, rec, cyp, _ = run_traced(SRC, 6)
        ctts = [cyp.ctt(r) for r in range(6)]
        before = [snapshot(c) for c in ctts]
        partial = MergedCTT(MergedVertex(ctts[0].root), 0)
        for ctt in ctts:
            partial.fold_rank(ctt)
        assert [snapshot(c) for c in ctts] == before

    def test_repeated_merges_identical(self):
        _, rec, cyp, _ = run_traced(SRC, 4)
        ctts = [cyp.ctt(r) for r in range(4)]
        first = merge_all(ctts)
        second = merge_all(ctts)
        # Identical group structure and identical merged timing counts.
        for va, vb in zip(first.root.preorder(), second.root.preorder()):
            assert len(va.groups) == len(vb.groups)
            for ga, gb in zip(va.groups, vb.groups):
                assert payload_key(ga) == payload_key(gb)
                assert ga.ranks == gb.ranks
                if ga.records:
                    for ra, rb in zip(ga.records, gb.records):
                        assert duration(ra).count == duration(rb).count
                        assert duration(ra).mean == duration(rb).mean

    def test_merged_time_counts_scale_with_ranks(self):
        _, rec, cyp, _ = run_traced(SRC, 4)
        merged = merge_all([cyp.ctt(r) for r in range(4)])
        for v in merged.root.preorder():
            for g in v.groups:
                if g.records:
                    for r in g.records:
                        # 8 calls per rank x 4 ranks merged
                        if r.key[0] == "MPI_Allreduce":
                            assert duration(r).count == 32
