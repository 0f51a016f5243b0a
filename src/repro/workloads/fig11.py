"""The paper's Fig. 11 shape as a first-class workload.

One loop whose body alternates a branch pair (send on even ranks, recv
on odd) with a collective — the canonical CYPRESS compression shape the
micro-benchmarks and the ingest server's fault-smoke matrix use.  Raw
trace size grows linearly with ``iters`` while the compressed form stays
O(1) stride tuples, which makes it the cheapest workload that still
exercises loops, branches, point-to-point and collective records.
"""

from __future__ import annotations

from .base import Workload, scaled

SOURCE = """
func main() {
  mpi_init();
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < iters; i = i + 1) {
    if (rank % 2 == 0) {
      mpi_send((rank + 1) % size, 4096, 7);
    } else {
      mpi_recv((rank + size - 1) % size, 4096, 7);
    }
    mpi_allreduce(8);
  }
  mpi_finalize();
}
"""


def defines(nprocs: int, scale: float = 1.0) -> dict[str, int]:
    del nprocs
    return {"iters": scaled(200, scale)}


WORKLOAD = Workload(
    name="fig11",
    source=SOURCE,
    defines=defines,
    valid_procs=tuple(range(2, 4097, 2)),  # the ring pairs even with odd
    paper_procs=(),  # illustration shape, not in the paper's grid
    description="Paper Fig. 11 loop: branch pair + collective per iteration",
)
