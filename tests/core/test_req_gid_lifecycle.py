"""Request→GID table lifecycle: the table must stay bounded by the number
of in-flight requests, and a consumed request id must never resolve to
its stale creator GID if the runtime reuses the id."""

import sys

sys.path.insert(0, "tests")
from helpers import assert_replay_exact, run_traced  # noqa: E402

from repro.core.intra import IntraProcessCompressor  # noqa: E402
from repro.mpisim.events import CommEvent  # noqa: E402
from repro.mpisim.pmpi import OP_EVENT  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402


def _leaves(cyp, rank, op):
    return [v for v in cyp.ctt(rank).preorder() if v.op == op]


class TestBoundedTable:
    def test_table_empty_after_every_wait(self):
        # 16 iterations × 2 requests: without eviction the table grows to
        # 32 entries per rank; with wait-consumption eviction it must be
        # empty once the loop completes (nothing is in flight).
        src = """
        func main() {
          var peer = 1 - mpi_comm_rank();
          var r[2];
          for (var i = 0; i < 16; i = i + 1) {
            r[0] = mpi_irecv(peer, 64, 0);
            r[1] = mpi_isend(peer, 64, 0);
            mpi_waitall(r, 2);
          }
        }
        """
        _, rec, cyp, _ = run_traced(src, 2)
        for rank in range(2):
            assert cyp.state(rank).req_gid == {}, (
                f"rank {rank}: req_gid leaked "
                f"{len(cyp.state(rank).req_gid)} entries"
            )
        assert_replay_exact(rec, cyp, 2)

    def test_in_flight_requests_stay_mapped(self):
        # Eviction must happen at consumption, not earlier: between post
        # and wait the mapping is live.
        src = """
        func main() {
          var peer = 1 - mpi_comm_rank();
          var r1 = mpi_irecv(peer, 8, 0);
          var r2 = mpi_isend(peer, 8, 0);
          mpi_wait(r2);
          mpi_wait(r1);
        }
        """
        _, rec, cyp, _ = run_traced(src, 2)
        assert cyp.state(0).req_gid == {}
        # Both waits resolved to real creator GIDs (not the -1 sentinel).
        for wait in _leaves(cyp, 0, "MPI_Wait"):
            (record,) = wait.records
            assert record.key[10] != (-1,)
        assert_replay_exact(rec, cyp, 2)


class TestRequestIdReuse:
    """Drive the sink interface directly with a runtime that recycles
    request ids — the simulator never does, but PMPI request handles in
    real MPI are reused constantly."""

    SRC = """
    func main() {
      var r1 = mpi_isend(1, 8, 0);
      mpi_wait(r1);
      var r2 = mpi_isend(1, 16, 1);
      mpi_wait(r2);
    }
    """

    def _drive(self, events):
        compiled = compile_minimpi(self.SRC)
        cyp = IntraProcessCompressor(compiled.cst)
        emit = cyp.stream(0)
        for ev in events:
            emit((OP_EVENT, ev))
        return cyp

    def test_reused_id_maps_to_new_creator(self):
        # Same rid=7 used for two different isend call sites: each wait
        # must see the GID of *its* creator.
        cyp = self._drive([
            CommEvent(op="MPI_Isend", rank=0, seq=0, peer=1, nbytes=8,
                      tag=0, req=7),
            CommEvent(op="MPI_Wait", rank=0, seq=1, reqs=(7,)),
            CommEvent(op="MPI_Isend", rank=0, seq=2, peer=1, nbytes=16,
                      tag=1, req=7),
            CommEvent(op="MPI_Wait", rank=0, seq=3, reqs=(7,)),
        ])
        isend_gids = [v.gid for v in _leaves(cyp, 0, "MPI_Isend")]
        wait_gids = [v.records[0].key[10] for v in _leaves(cyp, 0, "MPI_Wait")]
        assert wait_gids == [(isend_gids[0],), (isend_gids[1],)]
        assert cyp.state(0).req_gid == {}

    def test_consumed_id_never_resolves_stale(self):
        # A wait on an id that was already consumed (and not re-posted)
        # must get the -1 sentinel, not the first isend's GID — the
        # regression the eviction fixes.
        cyp = self._drive([
            CommEvent(op="MPI_Isend", rank=0, seq=0, peer=1, nbytes=8,
                      tag=0, req=7),
            CommEvent(op="MPI_Wait", rank=0, seq=1, reqs=(7,)),
            CommEvent(op="MPI_Isend", rank=0, seq=2, peer=1, nbytes=16,
                      tag=1, req=9),
            CommEvent(op="MPI_Wait", rank=0, seq=3, reqs=(7,)),
        ])
        wait_gids = [v.records[0].key[10] for v in _leaves(cyp, 0, "MPI_Wait")]
        isend_gids = [v.gid for v in _leaves(cyp, 0, "MPI_Isend")]
        assert wait_gids[0] == (isend_gids[0],)
        assert wait_gids[1] == (-1,)  # stale lookup must miss
        # rid 9 is still in flight, rid 7 is gone.
        assert cyp.state(0).req_gid == {9: isend_gids[1]}
