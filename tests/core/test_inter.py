"""Inter-process merge tests (paper §IV-B, Fig. 13)."""

import random
import sys

import pytest

sys.path.insert(0, "tests")
from helpers import assert_replay_exact, run_traced  # noqa: E402
from spec_merge import spec_merge  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.inter import MergeError, merge_all, payload_key  # noqa: E402
from repro.core.intra import IntraProcessCompressor  # noqa: E402
from repro.driver import run_compiled  # noqa: E402
from repro.static.cst import CALL, LOOP  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402
from repro.verify.invariants import check_merged  # noqa: E402
from repro.workloads import get as get_workload  # noqa: E402
from tests.faults.payload import corrupt_merged  # noqa: E402
from tests.record_fields import duration  # noqa: E402

FIG5_RUNNABLE = """
func main() {
  var myid = mpi_comm_rank();
  for (var i = 0; i < k; i = i + 1) {
    if (myid % 2 == 0) {
      mpi_send(myid + 1, 32, 0);
    } else {
      mpi_recv(myid - 1, 32, 0);
    }
    bar();
  }
  if (myid % 2 == 0) {
    mpi_reduce(0, 4);
  } else {
    mpi_reduce(0, 4);
  }
}
func bar() {
  for (var kk = 0; kk < 3; kk = kk + 1) {
    mpi_bcast(0, 64);
  }
}
"""


def merged_for(src, nprocs, defines=None):
    _, rec, cyp, _ = run_traced(src, nprocs, defines=defines)
    merged = merge_all([cyp.ctt(r) for r in range(nprocs)])
    return rec, cyp, merged


class TestFigure13:
    def test_even_odd_processes_grouped(self):
        rec, cyp, merged = merged_for(FIG5_RUNNABLE, 8, defines={"k": 5})
        # The loop vertex: all ranks share iteration count k -> one group.
        loops = [v for v in merged.root.preorder() if v.kind == LOOP]
        outer = loops[0]
        assert len(outer.groups) == 1
        (group,) = outer.groups
        assert group.ranks == list(range(8))
        assert group.counts.to_list() == [5]

    def test_send_leaf_groups_even_ranks(self):
        rec, cyp, merged = merged_for(FIG5_RUNNABLE, 8, defines={"k": 5})
        sends = [
            v for v in merged.root.preorder()
            if v.kind == CALL and v.op == "MPI_Send"
        ]
        (send,) = sends
        (group,) = send.groups
        assert group.ranks == [0, 2, 4, 6]

    def test_merged_replay_exact_for_all_ranks(self):
        _, rec, cyp, _ = run_traced(FIG5_RUNNABLE, 8, defines={"k": 5})
        assert_replay_exact(rec, cyp, 8, merged=True)


class TestGrouping:
    def test_identical_ranks_collapse_to_one_group(self):
        src = """
        func main() {
          for (var i = 0; i < 10; i = i + 1) { mpi_allreduce(64); }
        }
        """
        _, _, merged = merged_for(src, 16)
        assert merged.group_count() == sum(
            len(v.groups) for v in merged.root.preorder()
        )
        for v in merged.root.preorder():
            if v.groups:
                assert len(v.groups) == 1

    def test_relative_ranks_unify_stencil(self):
        src = """
        func main() {
          var rank = mpi_comm_rank();
          var size = mpi_comm_size();
          if (rank < size - 1) { mpi_send(rank + 1, 16, 0); }
          if (rank > 0) { mpi_recv(rank - 1, 16, 0); }
        }
        """
        _, _, merged = merged_for(src, 16)
        sends = [
            v for v in merged.root.preorder()
            if v.kind == CALL and v.op == "MPI_Send"
        ]
        (send,) = sends
        assert len(send.groups) == 1  # ranks 0..14 share the (+1) record

    def test_absolute_ranks_fragment_groups(self):
        from repro.core.intra import CypressConfig

        src = """
        func main() {
          var rank = mpi_comm_rank();
          var size = mpi_comm_size();
          if (rank < size - 1) { mpi_send(rank + 1, 16, 0); }
          if (rank > 0) { mpi_recv(rank - 1, 16, 0); }
        }
        """
        _, rec, cyp, _ = run_traced(
            src, 8, config=CypressConfig(relative_ranks=False)
        )
        merged = merge_all([cyp.ctt(r) for r in range(8)])
        sends = [
            v for v in merged.root.preorder()
            if v.kind == CALL and v.op == "MPI_Send"
        ]
        (send,) = sends
        assert len(send.groups) == 7  # every sender distinct

    def test_rank_absent_from_call_path_ignored(self):
        # Paper: "If a process has not executed a certain call path in the
        # CTT, the call path is ignored for this process."
        src = """
        func main() {
          var rank = mpi_comm_rank();
          if (rank == 0) {
            mpi_send(1, 8, 0);
          }
          if (rank == 1) {
            mpi_recv(0, 8, 0);
          }
          mpi_barrier();
        }
        """
        _, rec, cyp, _ = run_traced(src, 4)
        merged = merge_all([cyp.ctt(r) for r in range(4)])
        sends = [
            v for v in merged.root.preorder()
            if v.kind == CALL and v.op == "MPI_Send"
        ]
        (send,) = sends
        (group,) = send.groups
        assert group.ranks == [0]
        assert_replay_exact(rec, cyp, 4, merged=True)


class TestTimingMerge:
    def test_grouped_records_merge_time_stats(self):
        src = """
        func main() {
          for (var i = 0; i < 4; i = i + 1) { mpi_allreduce(8); }
        }
        """
        _, _, merged = merged_for(src, 8)
        leaf = [
            v for v in merged.root.preorder()
            if v.kind == CALL and v.op == "MPI_Allreduce"
        ][0]
        (group,) = leaf.groups
        (record,) = group.records
        assert duration(record).count == 4 * 8  # 4 calls x 8 ranks


class TestSchedules:
    @pytest.mark.parametrize("schedule", ["tree", "fold"])
    def test_schedules_agree(self, schedule):
        """There is one merge; ``schedule`` is accepted and ignored, for
        the two names ``benchmarks/e2e`` still passes."""
        _, cyp, merged = merged_for(FIG5_RUNNABLE, 8, defines={"k": 4})
        named = merge_all([cyp.ctt(r) for r in range(8)], schedule=schedule)
        assert named.nranks_merged == merged.nranks_merged == 8
        assert serialize.dumps(named) == serialize.dumps(merged)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_all([])


class TestStructuralMismatch:
    def test_different_programs_rejected(self):
        _, _, cyp_a, _ = run_traced("func main() { mpi_barrier(); }", 1)
        _, _, cyp_b, _ = run_traced(
            "func main() { mpi_barrier(); mpi_barrier(); }", 2
        )
        ctts = [cyp_a.ctt(0), cyp_b.ctt(1)]
        for merge in (merge_all, spec_merge):
            with pytest.raises(MergeError, match="structural mismatch"):
                merge(ctts)


class TestComplexity:
    def test_merge_cost_linear_in_tree_not_trace(self):
        """The O(n) claim: doubling the iteration count (trace length) must
        not measurably grow merge input size — the CTT stays the same."""
        src = """
        func main() {
          for (var i = 0; i < n; i = i + 1) { mpi_allreduce(8); }
        }
        """
        _, _, cyp_small, _ = run_traced(src, 4, defines={"n": 10})
        _, _, cyp_big, _ = run_traced(src, 4, defines={"n": 1000})
        small = merge_all([cyp_small.ctt(r) for r in range(4)])
        big = merge_all([cyp_big.ctt(r) for r in range(4)])
        assert big.vertex_count() == small.vertex_count()
        assert big.group_count() == small.group_count()


class TestGroupLists:
    """A vertex's groups are a list in lowest-rank order; only the
    merge keeps a payload index, on the tree it builds."""

    @staticmethod
    def _merged(nprocs=16):
        w = get_workload("mg")  # rank-dependent branches: many groups
        compiled = compile_minimpi(w.source)
        comp = IntraProcessCompressor(compiled.cst)
        run_compiled(
            compiled, nprocs, defines=w.defines(nprocs, 0.1), tracer=comp
        )
        ctts = [comp.ctt(r) for r in range(nprocs)]
        return merge_all(ctts[::-1], nranks=nprocs), ctts

    def test_merged_and_loaded_groups_are_lists_by_lowest_rank(self):
        merged, _ = self._merged()
        loaded = serialize.loads(serialize.dumps(merged))
        for tree in (merged, loaded):
            assert max(len(v.groups) for v in tree.vertices()) > 1
            for v in tree.vertices():
                assert type(v.groups) is list
                lows = [g.ranks[0] for g in v.groups]
                assert lows == sorted(set(lows))
                assert v.groups == v.sorted_groups()
        for v, keys in zip(merged.vertices(), merged.index, strict=True):
            assert list(keys.values()) == v.groups
            assert all(payload_key(g) == k for k, g in keys.items())

    def test_a_loaded_tree_has_no_index_and_does_not_merge(self):
        merged, ctts = self._merged(4)
        loaded = serialize.loads(serialize.dumps(merged))
        assert loaded.index is None
        with pytest.raises(MergeError, match="does not merge"):
            loaded.add_rank(ctts[0])
        assert loaded.index is None

    def test_a_stale_index_key_is_reported_on_a_merged_tree(self):
        merged, _ = self._merged()
        corrupt_merged(merged, "signature-stale", random.Random(3))
        codes = {v.code for v in check_merged(merged, nranks=16)}
        assert "signature-stale" in codes
        # a loaded tree stores no key, so the same damage is not stale
        loaded = serialize.loads(serialize.dumps(merged))
        codes = {v.code for v in check_merged(loaded, nranks=16)}
        assert "signature-stale" not in codes
