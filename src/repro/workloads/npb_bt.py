"""BT-like kernel: multi-partition ADI on a square process grid.

NPB BT solves block-tridiagonal systems with three alternating-direction
sweeps per time step.  In the multi-partition scheme every rank exchanges
one cell face per sweep direction with its successor/predecessor along
rows, columns and wrapped diagonals of the p×p grid.  Messages are large
and uniform — the friendly case for every compressor (paper Fig. 15a).

Runs on perfect-square process counts (paper: 64, 121, 256, 400).
"""

from __future__ import annotations

from .base import Workload, is_square, scaled

SOURCE = """
// BT-like multi-partition ADI kernel.
func sweep(dst, src, msg, tag, ctime) {
  var r[2];
  r[0] = mpi_irecv(src, msg, tag);
  r[1] = mpi_isend(dst, msg, tag);
  mpi_waitall(r, 2);
  compute(ctime);
}

func main() {
  mpi_init();
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  var p = isqrt(size);
  var row = rank / p;
  var col = rank % p;
  var cell = probsize / p;
  var msg = cell * cell * 40;   // 5 doubles per face point
  for (var it = 0; it < niter; it = it + 1) {
    // x sweep: successor along the row (wrapped)
    sweep(row * p + (col + 1) % p, row * p + (col + p - 1) % p, msg, 10, ctime);
    // y sweep: successor along the column (wrapped)
    sweep(((row + 1) % p) * p + col, ((row + p - 1) % p) * p + col, msg, 11, ctime);
    // z sweep: wrapped diagonal (multi-partition ownership shift)
    sweep(((row + 1) % p) * p + (col + 1) % p,
          ((row + p - 1) % p) * p + (col + p - 1) % p, msg, 12, ctime);
  }
  mpi_allreduce(40);   // solution verification norms
  mpi_finalize();
}
"""


def defines(nprocs: int, scale: float = 1.0) -> dict[str, int]:
    if not is_square(nprocs):
        raise ValueError(f"BT needs a square process count, got {nprocs}")
    return {
        "probsize": 408,  # CLASS D grid edge
        "niter": scaled(20, scale),  # CLASS D: 250
        "ctime": 400,  # us of computation per sweep
    }


WORKLOAD = Workload(
    name="bt",
    source=SOURCE,
    defines=defines,
    valid_procs=tuple(p * p for p in range(2, 33)),
    paper_procs=(64, 121, 256, 400),
    description="Block-tridiagonal ADI, multi-partition; large uniform messages",
)
