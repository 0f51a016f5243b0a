"""Nonblocking request objects for the simulated MPI runtime."""

from __future__ import annotations

from dataclasses import dataclass

ISEND = "isend"
IRECV = "irecv"


@dataclass
class Request:
    """State of one outstanding nonblocking operation."""

    rid: int
    rank: int
    kind: str  # ISEND or IRECV
    peer: int  # dest (isend) / requested source (irecv; may be ANY_SOURCE)
    tag: int
    nbytes: int
    comm: int
    post_time: float
    complete: bool = False
    completion_time: float = 0.0
    actual_source: int = -1  # resolved source for wildcard receives
    actual_nbytes: int = -1  # actual size matched (receives)

    def finish(self, time: float, source: int = -1, nbytes: int = -1) -> None:
        self.complete = True
        self.completion_time = time
        if source >= 0:
            self.actual_source = source
        if nbytes >= 0:
            self.actual_nbytes = nbytes
