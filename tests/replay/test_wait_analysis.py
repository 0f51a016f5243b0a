"""Wait-time / bottleneck analysis tests (SIM-MPI extension)."""

import sys

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.core.decompress import decompress_rank  # noqa: E402
from repro.replay import predict  # noqa: E402

# Rank 0 computes 10x longer than everyone else; the others wait at the
# barrier — rank 0 is the bottleneck.
IMBALANCED = """
func main() {
  var rank = mpi_comm_rank();
  for (var i = 0; i < 5; i = i + 1) {
    if (rank == 0) { compute(5000); } else { compute(500); }
    mpi_barrier();
  }
}
"""


def sim_of(source, nprocs):
    # Imbalance analysis replays the *per-rank* CTTs: the merged job-wide
    # trace merges timing statistics across grouped ranks (the paper's
    # design trade-off), which would average the straggler away.
    _, rec, cyp, _ = run_traced(source, nprocs)
    traces = {r: decompress_rank(cyp.ctt(r)) for r in range(nprocs)}
    return predict(traces)


class TestWaitAnalysis:
    def test_straggler_identified_as_bottleneck(self):
        sim = sim_of(IMBALANCED, 6)
        assert sim.bottleneck_ranks(1) == [0]

    def test_waiters_have_high_wait_fraction(self):
        sim = sim_of(IMBALANCED, 6)
        assert sim.wait_fraction(0) < 0.05
        for rank in range(1, 6):
            assert sim.wait_fraction(rank) > 0.5

    def test_balanced_program_low_wait(self):
        balanced = IMBALANCED.replace("compute(5000)", "compute(500)")
        sim = sim_of(balanced, 4)
        for rank in range(4):
            assert sim.wait_fraction(rank) < 0.2

    def test_pipeline_wait_grows_downstream(self):
        # A relay chain: rank k waits on rank k-1's long computation.
        chain = """
        func main() {
          var rank = mpi_comm_rank();
          var size = mpi_comm_size();
          compute(100);
          if (rank > 0) { mpi_recv(rank - 1, 64, 0); }
          compute(2000);
          if (rank < size - 1) { mpi_send(rank + 1, 64, 0); }
        }
        """
        sim = sim_of(chain, 5)
        assert sim.wait_fraction(4) > sim.wait_fraction(1)
        assert sim.wait_fraction(0) == 0.0

    def test_wait_never_exceeds_total(self):
        sim = sim_of(IMBALANCED, 4)
        for rank in range(4):
            assert 0.0 <= sim.wait_fraction(rank) <= 1.0

    def test_cli_verify_command(self, capsys):
        from tests.verify import check

        assert check.main(["mg", "-n", "8", "--scale", "0.3",
                           "--differential"]) == 0
        assert "differential: ok" in capsys.readouterr().out
