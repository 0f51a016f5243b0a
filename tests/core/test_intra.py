"""Intra-process compression tests: cursor mechanics, record merging,
loop/branch payloads, async requests, wildcards."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import assert_replay_exact, run_traced  # noqa: E402

from repro.core.errors import StreamMismatchError  # noqa: E402
from repro.core.intra import CypressConfig  # noqa: E402
from repro.static.cst import BRANCH, CALL, LOOP  # noqa: E402
from tests.record_fields import duration, occurrences, pre_gap  # noqa: E402


def leaf_records(compressor, rank, op):
    for v in compressor.ctt(rank).preorder():
        if v.kind == CALL and v.op == op:
            return v.records
    raise AssertionError(f"no leaf for {op}")


def vertices(compressor, rank, kind):
    return [v for v in compressor.ctt(rank).preorder() if v.kind == kind]


class TestLeafCompression:
    def test_identical_events_merge_to_one_record(self):
        src = """
        func main() {
          for (var i = 0; i < 50; i = i + 1) {
            mpi_send(0, 64, 1);
            mpi_recv(0, 64, 1);
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 1)
        records = leaf_records(cyp, 0, "MPI_Send")
        assert len(records) == 1
        assert records[0].length == 50

    def test_parameter_change_opens_new_record(self):
        src = """
        func main() {
          for (var i = 0; i < 10; i = i + 1) {
            mpi_send(0, 64 + 64 * (i / 5), 1);
            mpi_recv(0, 64 + 64 * (i / 5), 1);
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 1)
        records = leaf_records(cyp, 0, "MPI_Send")
        assert len(records) == 2
        assert [r.length for r in records] == [5, 5]

    def test_cyclic_sizes_merge_with_unbounded_window(self):
        # MG-style: sizes cycle per inner position; default config merges
        # each size into one record with a strided occurrence set.
        src = """
        func main() {
          for (var i = 0; i < 12; i = i + 1) {
            mpi_send(0, 64 * (1 + i % 3), 1);
            mpi_recv(0, 64 * (1 + i % 3), 1);
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 1)
        records = leaf_records(cyp, 0, "MPI_Send")
        assert len(records) == 3
        assert all(r.length == 4 for r in records)
        assert all(len(occurrences(r).terms) == 1 for r in records)

    def test_window_one_reproduces_paper_variant(self):
        src = """
        func main() {
          for (var i = 0; i < 12; i = i + 1) {
            mpi_send(0, 64 * (1 + i % 3), 1);
            mpi_recv(0, 64 * (1 + i % 3), 1);
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 1, config=CypressConfig(window=1))
        records = leaf_records(cyp, 0, "MPI_Send")
        assert len(records) == 12  # last-record-only comparison never matches
        assert_replay_exact(rec, cyp, 1)  # but replay is still exact

    def test_duration_stats_accumulate(self):
        src = "func main() { for (var i = 0; i < 5; i = i + 1) { mpi_barrier(); } }"
        _, _, cyp, _ = run_traced(src, 2)
        (record,) = leaf_records(cyp, 0, "MPI_Barrier")
        assert duration(record).count == 5
        assert duration(record).mean > 0

    def test_pre_gap_records_compute_time(self):
        src = "func main() { compute(500); mpi_barrier(); }"
        _, _, cyp, _ = run_traced(src, 1)
        (record,) = leaf_records(cyp, 0, "MPI_Barrier")
        assert pre_gap(record).mean >= 500


class TestLoopPayload:
    def test_simple_loop_count(self):
        src = "func main() { for (var i = 0; i < 7; i = i + 1) { mpi_barrier(); } }"
        _, _, cyp, _ = run_traced(src, 1)
        (loop,) = vertices(cyp, 0, LOOP)
        assert loop.loop_counts.to_list() == [7]

    def test_nested_triangular_counts_fig10(self):
        # Paper Fig. 10: inner counts form <0, 1, ..., k-1>.
        src = """
        func main() {
          for (var i = 0; i < 6; i = i + 1) {
            mpi_bcast(0, 8);
            for (var j = 0; j < i; j = j + 1) { mpi_barrier(); }
          }
        }
        """
        _, _, cyp, _ = run_traced(src, 1)
        outer, inner = vertices(cyp, 0, LOOP)
        assert outer.loop_counts.to_list() == [6]
        assert inner.loop_counts.to_list() == [0, 1, 2, 3, 4, 5]
        assert inner.loop_counts.terms == [(0, 6, 1)]  # stride-compressed

    def test_zero_iteration_loop_recorded(self):
        src = """
        func main() {
          for (var i = 0; i < 0; i = i + 1) { mpi_barrier(); }
          mpi_barrier();
        }
        """
        _, rec, cyp, _ = run_traced(src, 1)
        (loop,) = vertices(cyp, 0, LOOP)
        assert loop.loop_counts.to_list() == [0]
        assert_replay_exact(rec, cyp, 1)

    def test_while_loop_counts(self):
        src = """
        func main() {
          var x = 5;
          while (x > 0) { mpi_barrier(); x = x - 1; }
        }
        """
        _, _, cyp, _ = run_traced(src, 1)
        (loop,) = vertices(cyp, 0, LOOP)
        assert loop.loop_counts.to_list() == [5]


class TestBranchPayload:
    def test_alternating_branch_fig11(self):
        # Paper Fig. 11: taken at <0,8,2> / <1,9,2>.
        src = """
        func main() {
          for (var i = 0; i < 10; i = i + 1) {
            if (i % 2 == 0) { mpi_send(0, 8, 0); } else { mpi_recv(0, 8, 0); }
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 1)
        then_v, else_v = vertices(cyp, 0, BRANCH)
        assert then_v.visits.terms == [(0, 5, 2)]
        assert else_v.visits.terms == [(1, 5, 2)]
        assert_replay_exact(rec, cyp, 1)

    def test_branch_never_taken(self):
        src = """
        func main() {
          for (var i = 0; i < 4; i = i + 1) {
            if (i > 100) { mpi_send(0, 8, 0); }
            mpi_barrier();
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 1)
        (path0,) = vertices(cyp, 0, BRANCH)
        assert len(path0.visits) == 0
        assert_replay_exact(rec, cyp, 1)

    def test_rank_dependent_branches(self):
        src = """
        func main() {
          var rank = mpi_comm_rank();
          if (rank == 0) { mpi_send(1, 8, 0); } else { mpi_recv(0, 8, 0); }
        }
        """
        _, rec, cyp, _ = run_traced(src, 2)
        assert_replay_exact(rec, cyp, 2)


class TestAsyncRequests:
    def test_request_mapped_to_gid_fig12(self):
        src = """
        func main() {
          var peer = 1 - mpi_comm_rank();
          var r1 = mpi_isend(peer, 8, 0);
          var r2 = mpi_irecv(peer, 8, 0);
          mpi_wait(r1);
          mpi_wait(r2);
        }
        """
        _, rec, cyp, _ = run_traced(src, 2)
        ctt = cyp.ctt(0)
        by_op = {}
        for v in ctt.preorder():
            if v.kind == CALL:
                by_op.setdefault(v.op, []).append(v)
        wait1, wait2 = by_op["MPI_Wait"]
        (r1,) = wait1.records
        (r2,) = wait2.records
        assert r1.key[10] == (by_op["MPI_Isend"][0].gid,)
        assert r2.key[10] == (by_op["MPI_Irecv"][0].gid,)
        assert_replay_exact(rec, cyp, 2)

    def test_waitall_gid_tuple_stable_across_iterations(self):
        src = """
        func main() {
          var peer = 1 - mpi_comm_rank();
          var r[2];
          for (var i = 0; i < 20; i = i + 1) {
            r[0] = mpi_irecv(peer, 64, 0);
            r[1] = mpi_isend(peer, 64, 0);
            mpi_waitall(r, 2);
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 2)
        records = leaf_records(cyp, 0, "MPI_Waitall")
        assert len(records) == 1  # same GID tuple every iteration
        assert records[0].length == 20
        assert_replay_exact(rec, cyp, 2)


class TestWildcards:
    def test_blocking_wildcard_recv(self):
        src = """
        func main() {
          var rank = mpi_comm_rank();
          if (rank == 0) {
            mpi_recv(-1, 8, 0);
            mpi_recv(-1, 8, 0);
          } else {
            mpi_send(0, 8, 0);
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 3)
        records = leaf_records(cyp, 0, "MPI_Recv")
        assert all(r.key[9] for r in records)  # wildcard flag set
        assert_replay_exact(rec, cyp, 3)

    def test_nonblocking_wildcard_deferred_then_merged(self):
        src = """
        func main() {
          var rank = mpi_comm_rank();
          if (rank == 0) {
            for (var i = 0; i < 10; i = i + 1) {
              var r = mpi_irecv(-1, 8, 0);
              mpi_wait(r);
            }
          } else {
            for (var i = 0; i < 10; i = i + 1) { mpi_send(0, 8, 0); }
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 2)
        records = leaf_records(cyp, 0, "MPI_Irecv")
        # single source -> all ten resolved records merged into one
        assert len(records) == 1
        assert records[0].length == 10
        assert not records[0].pending
        assert_replay_exact(rec, cyp, 2)

    def test_unresolved_wildcard_at_finalize_raises(self):
        src = """
        func main() {
          var rank = mpi_comm_rank();
          if (rank == 0) {
            var r = mpi_irecv(-1, 8, 0);
            mpi_finalize();
            mpi_wait(r);
          } else {
            mpi_finalize();
            mpi_send(0, 8, 0);
          }
        }
        """
        with pytest.raises(StreamMismatchError, match="wildcard"):
            run_traced(src, 2)


class TestInlinedCopies:
    def test_same_function_two_call_sites(self):
        src = """
        func main() {
          var peer = 1 - mpi_comm_rank();
          exchange(peer, 64);
          mpi_barrier();
          exchange(peer, 128);
        }
        func exchange(peer, n) {
          var r[2];
          r[0] = mpi_irecv(peer, n, 0);
          r[1] = mpi_isend(peer, n, 0);
          mpi_waitall(r, 2);
        }
        """
        _, rec, cyp, _ = run_traced(src, 2)
        assert_replay_exact(rec, cyp, 2)
        # two distinct Isend leaves (one per inlined copy)
        isends = [
            v for v in cyp.ctt(0).preorder()
            if v.kind == CALL and v.op == "MPI_Isend"
        ]
        assert len(isends) == 2
        assert {r.key[5] for v in isends for r in v.records} == {64, 128}

    def test_same_call_site_twice_in_loop_body(self):
        src = """
        func main() {
          var peer = 1 - mpi_comm_rank();
          for (var i = 0; i < 5; i = i + 1) {
            swap(peer);
            swap(peer);
          }
        }
        func swap(peer) {
          var r[2];
          r[0] = mpi_irecv(peer, 32, 0);
          r[1] = mpi_isend(peer, 32, 0);
          mpi_waitall(r, 2);
        }
        """
        _, rec, cyp, _ = run_traced(src, 2)
        assert_replay_exact(rec, cyp, 2)


class TestRecursion:
    def test_tail_recursion_exact(self):
        src = """
        func main() { chain(6); }
        func chain(n) {
          if (n == 0) {
            return;
          } else {
            mpi_bcast(0, 8);
            chain(n - 1);
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 2)
        assert_replay_exact(rec, cyp, 2)
        loops = vertices(cyp, 0, LOOP)
        assert len(loops) == 1
        # chain(6) enters the function 7 times (the n==0 guard iteration
        # performs no communication but is still an activation).
        assert loops[0].loop_counts.to_list() == [7]

    def test_nontail_recursion_preserves_multiset(self):
        # Paper Fig. 8 shape: Bcast before, Reduce after the recursive call.
        # The pseudo-loop linearisation approximates order but must keep
        # the exact multiset of events.
        src = """
        func main() { f(4); }
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
        from collections import Counter

        from repro.core.decompress import decompress_rank

        _, rec, cyp, _ = run_traced(src, 2)
        replay = [e.call_tuple() for e in decompress_rank(cyp.ctt(0))]
        truth = [e.replay_tuple() for e in rec.events[0]]
        assert Counter(replay) == Counter(truth)
        assert len(replay) == len(truth) == 8  # 4 bcasts + 4 reduces


class TestErrors:
    # Callbacks only buffer: a CST/stream mismatch raises no later than
    # the next drain, flush() or read of that rank, and carries the
    # offending item's index in the rank's stream.

    def test_event_without_marker_context_raises(self):
        # Feed the compressor a mismatched stream directly.
        from repro.core.intra import IntraProcessCompressor
        from repro.mpisim.events import CommEvent
        from repro.mpisim.pmpi import OP_EVENT
        from repro.static.instrument import compile_minimpi

        compiled = compile_minimpi("func main() { mpi_barrier(); }")
        comp = IntraProcessCompressor(compiled.cst)
        emit = comp.stream(0)
        emit((OP_EVENT, CommEvent(op="MPI_Barrier", rank=0, seq=0)))
        emit((OP_EVENT, CommEvent(op="MPI_Send", rank=0, seq=1)))
        with pytest.raises(StreamMismatchError,
                           match="rank 0: no CST leaf") as err:
            comp.flush()
        assert err.value.item_index == 1
        assert "[stream item 1]" in str(err.value)

    def test_unbalanced_loop_exit_raises(self):
        from repro.core.intra import IntraProcessCompressor
        from repro.mpisim.pmpi import OP_LOOP_POP
        from repro.static.instrument import compile_minimpi

        compiled = compile_minimpi(
            "func main() { for (;x;) { mpi_barrier(); } }"
        )
        comp = IntraProcessCompressor(compiled.cst)
        comp.stream(0)((OP_LOOP_POP, 123))
        with pytest.raises(StreamMismatchError, match="no open loop") as err:
            comp.ctt(0)  # a read of the rank drains it
        assert err.value.item_index == 0

    def test_mismatch_index_counts_across_drains(self, monkeypatch):
        from repro.core import intra
        from repro.mpisim.pmpi import (
            OP_BRANCH_EXIT,
            OP_LOOP_ITER,
            OP_LOOP_POP,
            OP_LOOP_PUSH,
        )
        from repro.static.instrument import compile_minimpi

        monkeypatch.setattr(intra, "DRAIN_ITEMS", 2)
        compiled = compile_minimpi(
            "func main() { for (;x;) { mpi_barrier(); } }"
        )
        loop = next(v for v in compiled.cst.preorder() if v.kind == "loop")
        comp = intra.IntraProcessCompressor(compiled.cst)
        emit = comp.stream(0)
        emit((OP_LOOP_PUSH, loop.ast_id))
        for _ in range(4):
            emit((OP_LOOP_ITER, loop.ast_id))
        emit((OP_LOOP_POP, loop.ast_id))
        # Items 0-5 drained in pairs; item 6 is the bad one and waits in
        # the buffer until item 7 fills it.
        emit((OP_BRANCH_EXIT, 99))
        with pytest.raises(StreamMismatchError, match="no open branch") as err:
            emit((OP_LOOP_POP, loop.ast_id))
        assert err.value.item_index == 6
