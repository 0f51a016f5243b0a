"""Communication event records — what the PMPI layer observes.

One :class:`CommEvent` is produced per MPI call, carrying the parameter set
the paper lists for communication vertices (§IV-A): *communication type,
size, direction, tag, context, and time*, plus request linkage for
asynchronous operations.

``key()`` returns the tuple compared during compression — everything but
the communication time, exactly as the paper merges records ("merging them
if all their communication parameters (all but the communication time)
match").
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Direction constants.
DIR_NONE = 0
DIR_SEND = 1
DIR_RECV = 2
DIR_BOTH = 3  # sendrecv

# Which ops carry which direction.
_OP_DIRECTION = {
    "MPI_Send": DIR_SEND,
    "MPI_Isend": DIR_SEND,
    "MPI_Recv": DIR_RECV,
    "MPI_Irecv": DIR_RECV,
    "MPI_Sendrecv": DIR_BOTH,
}

COLLECTIVES = frozenset(
    {
        "MPI_Barrier",
        "MPI_Bcast",
        "MPI_Reduce",
        "MPI_Allreduce",
        "MPI_Gather",
        "MPI_Scatter",
        "MPI_Allgather",
        "MPI_Alltoall",
        "MPI_Scan",
        "MPI_Reduce_scatter",
        "MPI_Comm_split",
    }
)

WAIT_OPS = frozenset({"MPI_Wait", "MPI_Waitall", "MPI_Waitsome", "MPI_Test"})

NONBLOCKING_OPS = frozenset({"MPI_Isend", "MPI_Irecv"})

NO_PEER = -100  # sentinel: op has no peer (collectives, init/finalize)


def direction_of(op: str) -> int:
    return _OP_DIRECTION.get(op, DIR_NONE)


@dataclass(slots=True)
class CommEvent:
    """A single traced MPI call of one rank.

    ``slots=True``: the tracing fast path reads a dozen fields per event
    (it gathers them into one parameter tuple), and the runtime allocates
    one instance per MPI call — slot storage makes both cheap."""

    op: str
    rank: int
    seq: int  # per-rank event index (used to verify sequence preservation)
    peer: int = NO_PEER  # dest for sends, src for recvs; NO_PEER otherwise
    peer2: int = NO_PEER  # recv source for MPI_Sendrecv
    tag: int = 0
    tag2: int = 0  # recv tag for MPI_Sendrecv
    nbytes: int = 0
    nbytes2: int = 0  # recv bytes for MPI_Sendrecv
    comm: int = 0
    root: int = -1
    req: int = -1  # request id produced (Isend/Irecv)
    reqs: tuple[int, ...] = ()  # requests consumed (Wait*/Test)
    wildcard: bool = False  # posted with ANY_SOURCE (peer holds actual src)
    # MPI_Comm_split: the communicator id produced (deterministic, so the
    # same value on every rank of the same colour group).  For the split
    # event, tag carries the colour and peer carries the key (relative
    # encoding makes the common key==rank case merge across ranks).
    result_comm: int = -1
    time_start: float = 0.0
    duration: float = 0.0
    # Filled in by the CYPRESS tracer: GIDs the wait refers to (paper Fig 12)
    # and the GID of the vertex producing a request.
    req_gids: tuple[int, ...] = field(default_factory=tuple)

    @property
    def direction(self) -> int:
        return direction_of(self.op)

    def replay_tuple(self) -> tuple:
        """Canonical identity used to check sequence-preserving replay:
        the full call as the application issued it (no timing)."""
        return (
            self.op,
            self.peer,
            self.peer2,
            self.tag,
            self.tag2,
            self.nbytes,
            self.nbytes2,
            self.comm,
            self.root,
            self.wildcard,
            self.result_comm,
        )


def format_event(ev: CommEvent) -> str:
    """Single-line textual form, the unit of the raw-trace (Gzip) baseline."""
    parts = [ev.op, f"r{ev.rank}", f"t={ev.time_start:.3f}", f"d={ev.duration:.3f}"]
    if ev.peer != NO_PEER:
        parts.append(f"peer={ev.peer}")
    if ev.peer2 != NO_PEER:
        parts.append(f"peer2={ev.peer2}")
    if ev.nbytes:
        parts.append(f"bytes={ev.nbytes}")
    if ev.nbytes2:
        parts.append(f"bytes2={ev.nbytes2}")
    if ev.tag:
        parts.append(f"tag={ev.tag}")
    if ev.root >= 0:
        parts.append(f"root={ev.root}")
    if ev.req >= 0:
        parts.append(f"req={ev.req}")
    if ev.reqs:
        parts.append("reqs=" + ",".join(map(str, ev.reqs)))
    if ev.wildcard:
        parts.append("anysrc")
    return " ".join(parts)
