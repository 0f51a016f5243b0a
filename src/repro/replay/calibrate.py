"""LogGP parameter fitting from ping-pong microbenchmarks (paper §VII-D:
"the network parameters needed by the SIM-MPI is acquired using two nodes
of the Explorer-100 cluster").

Runs a two-rank ping-pong MiniMPI program on the simulated machine for a
ladder of message sizes, then least-squares fits the LogGP line
``rtt/2 = 2o + L + (k-1)G`` — one straight line through a machine whose
true behaviour is piecewise (eager/rendezvous), so the fit carries a
small, honest model error into every prediction.
"""

from __future__ import annotations

from repro.driver import run_compiled
from repro.mpisim.netmodel import NetworkModel
from repro.mpisim.pmpi import RecordingSink
from repro.static.instrument import compile_minimpi

from .loggp import LogGPParams

_PINGPONG = """
func main() {
  mpi_init();
  var rank = mpi_comm_rank();
  for (var r = 0; r < reps; r = r + 1) {
    if (rank == 0) {
      mpi_send(1, nbytes, 7);
      mpi_recv(1, nbytes, 8);
    } else {
      mpi_recv(0, nbytes, 7);
      mpi_send(0, nbytes, 8);
    }
  }
  mpi_finalize();
}
"""

DEFAULT_SIZES = (1, 64, 512, 2048, 8192, 32768, 131072, 524288)


def measure_pingpong(
    nbytes: int, reps: int = 5, network: NetworkModel | None = None
) -> float:
    """Half round-trip time (us) of one ping-pong on the simulated machine."""
    compiled = compile_minimpi(_PINGPONG, cypress=False)
    sink = RecordingSink()
    result = run_compiled(
        compiled, nprocs=2, defines={"nbytes": nbytes, "reps": reps},
        tracer=sink, network=network,
    )
    return result.elapsed / (2 * reps)


def fit_loggp(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    reps: int = 5,
    network: NetworkModel | None = None,
) -> LogGPParams:
    """Fit LogGP to ping-pong measurements: least squares on
    ``t(k) = a + G·k`` with ``a = L + 2o`` split using the runtime's
    nominal overhead share."""
    import numpy as np

    ks = np.array(sizes, dtype=float)
    ts = np.array(
        [measure_pingpong(int(k), reps=reps, network=network) for k in sizes]
    )
    A = np.vstack([np.ones_like(ks), ks]).T
    (a, G), *_ = np.linalg.lstsq(A, ts, rcond=None)
    G = max(float(G), 1e-9)
    a = max(float(a), 0.1)
    o = min(0.7, a / 4)  # o is not separately observable from ping-pong
    L = a - 2 * o
    return LogGPParams(L=L, o=o, g=o, G=G)
