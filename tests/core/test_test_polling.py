"""MPI_Test through the whole pipeline: tracing, compression, replay."""

import sys

sys.path.insert(0, "tests")
from helpers import assert_replay_exact, run_traced  # noqa: E402

from repro.static.cst import CALL  # noqa: E402

# A bounded polling pattern: rank 0 posts an irecv and tests a fixed
# number of times (some fail, eventually one succeeds after the final
# wait), while rank 1 sends late.
SRC = """
func main() {
  var rank = mpi_comm_rank();
  if (rank == 0) {
    var r = mpi_irecv(1, 64, 5);
    var done = 0;
    for (var i = 0; i < 4; i = i + 1) {
      if (done == 0) {
        done = mpi_test(r);
      }
      compute(5);
    }
    if (done == 0) {
      mpi_wait(r);
    }
  } else {
    compute(500);
    mpi_send(0, 64, 5);
  }
  mpi_barrier();
}
"""


class TestPolling:
    def test_replay_exact(self):
        _, rec, cyp, _ = run_traced(SRC, 2)
        assert_replay_exact(rec, cyp, 2, merged=True)

    def test_failed_and_successful_tests_separate_records(self):
        _, rec, cyp, _ = run_traced(SRC, 2)
        tests = [
            v for v in cyp.ctt(0).preorder()
            if v.kind == CALL and v.op == "MPI_Test"
        ]
        (leaf,) = tests
        outcomes = {r.key[10] for r in leaf.records}  # req_gids tuples
        # With rank 1 sending after 500us, all 4 polls fail (-> empty
        # req_gids) and the wait completes the request; or the last poll
        # may succeed.  Either way, failed polls group into one record.
        failed = [r for r in leaf.records if r.key[10] == ()]
        assert failed and failed[0].length >= 3

    def test_simmpi_replays_polling(self):
        from repro.core.decompress import decompress_all
        from repro.core.inter import merge_all
        from repro.replay import predict

        _, rec, cyp, _ = run_traced(SRC, 2)
        merged = merge_all([cyp.ctt(r) for r in range(2)])
        sim = predict(decompress_all(merged))
        assert sim.elapsed >= 500  # bounded by rank 1's compute
