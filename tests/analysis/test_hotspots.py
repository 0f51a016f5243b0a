"""Structural hotspot analysis tests."""

import sys

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.analysis.hotspots import hotspots  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402
from repro.query import critical_leaves  # noqa: E402

# Two loops: the second moves 100x the data -> must dominate.
SRC = """
func main() {
  mpi_init();
  for (var i = 0; i < 10; i = i + 1) {
    mpi_allreduce(64);
  }
  for (var j = 0; j < 10; j = j + 1) {
    mpi_alltoall(65536);
  }
  mpi_finalize();
}
"""


def merged_of(nprocs=8):
    _, rec, cyp, _ = run_traced(SRC, nprocs)
    return merge_all([cyp.ctt(r) for r in range(nprocs)])


class TestHotspots:
    def test_total_matches_sum_of_leaves(self):
        merged = merged_of()
        tree = hotspots(merged)
        leaves = critical_leaves(merged, 100)
        assert tree.total_us > 0
        assert abs(tree.total_us - sum(h.total_us for h in leaves)) < 1e-6

    def test_heavy_loop_dominates(self):
        merged = merged_of()
        tree = hotspots(merged)
        loops = [c for c in tree.children if c.kind == "loop"]
        assert len(loops) == 2
        light, heavy = loops
        assert heavy.total_us > 5 * light.total_us

    def test_top_leaves_ordered(self):
        merged = merged_of()
        leaves = critical_leaves(merged, 5)
        times = [c.total_us for c in leaves]
        assert times == sorted(times, reverse=True)
        assert leaves[0].op == "MPI_Alltoall"

    def test_call_counts(self):
        merged = merged_of(4)
        tree = hotspots(merged)
        # 10+10 collectives + init/finalize, x4 ranks
        assert tree.calls == 22 * 4

    def test_format_renders_percentages(self):
        merged = merged_of(4)
        text = hotspots(merged).format()
        assert "MPI_Alltoall" in text and "%" in text

    def test_cli_hotspots(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "t.cyp")
        assert main(["trace", "ft", "-n", "4", "--scale", "0.5", "-o", trace]) == 0
        assert main(["hotspots", trace, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top call sites" in out and "MPI_Alltoall" in out
