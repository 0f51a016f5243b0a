"""Builtin functions available to MiniMPI programs.

Two classes of builtins exist:

* **MPI intrinsics** (``mpi_*``) — traced communication operations handled
  by the simulated runtime (:mod:`repro.mpisim`).  These are what the
  static analysis classifies as MPI invocations (CST leaf vertices).
* **Computation builtins** — untraced helpers (virtual-time computation,
  integer math).  The static analysis ignores them (Algorithm 1 line 21
  only records MPI invocations and user-defined functions).

The table maps each builtin to its arity for compile-time checking; -1
means variadic.
"""

from __future__ import annotations

# name -> (arity, traced MPI op name or None)
MPI_INTRINSICS: dict[str, tuple[int, str]] = {
    "mpi_init": (0, "MPI_Init"),
    "mpi_finalize": (0, "MPI_Finalize"),
    "mpi_send": (3, "MPI_Send"),  # (dest, nbytes, tag)
    "mpi_recv": (3, "MPI_Recv"),  # (src, nbytes, tag); src -1 = ANY_SOURCE
    "mpi_isend": (3, "MPI_Isend"),  # -> request id
    "mpi_irecv": (3, "MPI_Irecv"),  # -> request id
    "mpi_wait": (1, "MPI_Wait"),  # (req)
    "mpi_waitall": (2, "MPI_Waitall"),  # (req_array, count)
    "mpi_waitany": (2, "MPI_Waitany"),  # (req_array, count) -> index
    "mpi_waitsome": (2, "MPI_Waitsome"),  # (req_array, count) -> ncompleted
    "mpi_test": (1, "MPI_Test"),  # (req) -> 0/1
    "mpi_sendrecv": (6, "MPI_Sendrecv"),  # (dest, sbytes, stag, src, rbytes, rtag)
    "mpi_barrier": (0, "MPI_Barrier"),
    "mpi_bcast": (2, "MPI_Bcast"),  # (root, nbytes)
    "mpi_reduce": (2, "MPI_Reduce"),  # (root, nbytes)
    "mpi_allreduce": (1, "MPI_Allreduce"),  # (nbytes)
    "mpi_gather": (2, "MPI_Gather"),  # (root, nbytes per rank)
    "mpi_scatter": (2, "MPI_Scatter"),  # (root, nbytes per rank)
    "mpi_allgather": (1, "MPI_Allgather"),  # (nbytes per rank)
    "mpi_alltoall": (1, "MPI_Alltoall"),  # (nbytes per pair)
    "mpi_scan": (1, "MPI_Scan"),  # (nbytes)
    "mpi_reduce_scatter": (1, "MPI_Reduce_scatter"),  # (nbytes total)
    # sub-communicators (comm 0 is MPI_COMM_WORLD)
    "mpi_comm_split": (3, "MPI_Comm_split"),  # (comm, color, key) -> comm
    "mpi_barrier_on": (1, "MPI_Barrier"),  # (comm)
    "mpi_bcast_on": (3, "MPI_Bcast"),  # (comm, root, nbytes); comm-rank root
    "mpi_reduce_on": (3, "MPI_Reduce"),  # (comm, root, nbytes)
    "mpi_allreduce_on": (2, "MPI_Allreduce"),  # (comm, nbytes)
    "mpi_allgather_on": (2, "MPI_Allgather"),  # (comm, nbytes)
    "mpi_alltoall_on": (2, "MPI_Alltoall"),  # (comm, nbytes)
}

# Query intrinsics: MPI calls that are *not* traced as communication events
# (profilers, including ScalaTrace and the paper's tool, skip these).
MPI_QUERIES: dict[str, int] = {
    "mpi_comm_rank": 0,
    "mpi_comm_size": 0,
    "mpi_comm_rank_on": 1,  # (comm) -> rank within the communicator
    "mpi_comm_size_on": 1,  # (comm) -> communicator size
    "mpi_wtime": 0,
}

COMPUTE_BUILTINS: dict[str, int] = {
    "compute": 1,  # advance the rank's virtual clock by N microseconds
    "print": -1,  # debugging output (disabled by default in the runtime)
    "min": 2,
    "max": 2,
    "abs": 1,
    "ilog2": 1,  # floor(log2(n)) for n >= 1
    "pow2": 1,  # 2**n
    "isqrt": 1,  # integer square root
}

ALL_BUILTINS = {**{k: v[0] for k, v in MPI_INTRINSICS.items()}, **MPI_QUERIES, **COMPUTE_BUILTINS}

# Intrinsics whose runtime implementation may block (the interpreter only
# needs to know they are all routed through the syscall generator).
BLOCKING = frozenset(
    {
        "mpi_recv",
        "mpi_wait",
        "mpi_waitall",
        "mpi_waitany",
        "mpi_waitsome",
        "mpi_sendrecv",
        "mpi_barrier",
        "mpi_bcast",
        "mpi_reduce",
        "mpi_allreduce",
        "mpi_gather",
        "mpi_scatter",
        "mpi_allgather",
        "mpi_alltoall",
        "mpi_scan",
        "mpi_reduce_scatter",
        "mpi_comm_split",
        "mpi_barrier_on",
        "mpi_bcast_on",
        "mpi_reduce_on",
        "mpi_allreduce_on",
        "mpi_allgather_on",
        "mpi_alltoall_on",
    }
)


def make_classifier(program) -> "callable":
    """Build the classifier the static analysis uses: ``mpi`` for traced
    intrinsics, ``user`` for functions defined in the program, ``None``
    for everything else (queries, computation builtins)."""
    user_functions = set(program.functions)

    def classify(name: str) -> str | None:
        if name in MPI_INTRINSICS:
            return "mpi"
        if name in user_functions:
            return "user"
        return None

    return classify
