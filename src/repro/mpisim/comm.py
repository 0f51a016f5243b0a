"""Per-rank MPI communication API for the simulated runtime.

Every MiniMPI ``mpi_*`` intrinsic is routed through :meth:`RankComm.call`,
a generator: operations that cannot complete yet ``yield`` control back to
the runtime scheduler and are resumed until they can.  The method computes
virtual-time costs with the machine's :class:`~repro.mpisim.netmodel.NetworkModel`
and emits one :class:`~repro.mpisim.events.CommEvent` per call through
the rank's PMPI emitter.

Blocking receives are internally implemented as irecv+wait (one posted
request) so ordering between blocking and nonblocking receives follows MPI
matching rules, but they are traced as a single ``MPI_Recv`` event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .datatypes import ANY_SOURCE
from .errors import InvalidRequestError, ProgramError
from .events import CommEvent
from .pmpi import OP_EVENT, OP_FINALIZE
from .request import IRECV, ISEND, Request

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

WORLD = 0  # the only communicator id (MPI_COMM_WORLD)
_FINALIZE = (OP_FINALIZE,)  # the item that ends a rank's stream


class RankComm:
    """One rank's view of the communicator."""

    def __init__(self, rank: int, runtime: "Runtime") -> None:
        self.rank = rank
        self.runtime = runtime
        self.clock = 0.0  # virtual time, microseconds
        self.event_seq = 0
        self.finalized = False
        self.blocked_on: str | None = None  # for deadlock diagnostics
        #: This rank's emitter: the one way its items reach the sink.
        self.emit = runtime.tracer.stream(rank)

    # ------------------------------------------------------------------

    def _emit(self, ev: CommEvent) -> None:
        self.emit((OP_EVENT, ev))

    def _new_event(self, op: str, **kw) -> CommEvent:
        ev = CommEvent(op=op, rank=self.rank, seq=self.event_seq, **kw)
        self.event_seq += 1
        return ev

    def _check_rank(self, peer: int, what: str) -> None:
        if not (0 <= peer < self.runtime.nprocs):
            raise ProgramError(
                f"rank {self.rank}: {what} peer {peer} outside communicator "
                f"of size {self.runtime.nprocs}"
            )

    def _check_bytes(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ProgramError(f"rank {self.rank}: negative message size {nbytes}")

    # ------------------------------------------------------------------
    # Single entry point used by the interpreter.

    def call(self, name: str, args: list) -> Iterator[None]:
        """Execute one MPI intrinsic; a generator returning its value."""
        handler = getattr(self, "_op_" + name[4:])  # strip 'mpi_'
        result = yield from handler(*args)
        return result

    # -- environment ------------------------------------------------------

    def _op_init(self):
        t0 = self.clock
        ev = self._new_event("MPI_Init", time_start=t0, duration=0.0)
        self._emit(ev)
        return 0
        yield  # pragma: no cover

    def _op_finalize(self):
        t0 = self.clock
        ev = self._new_event("MPI_Finalize", time_start=t0, duration=0.0)
        self._emit(ev)
        self.finalized = True
        self.emit(_FINALIZE)
        return 0
        yield  # pragma: no cover

    # -- point to point ---------------------------------------------------

    def _op_send(self, dest: int, nbytes: int, tag: int):
        self._check_rank(dest, "send")
        self._check_bytes(nbytes)
        t0 = self.clock
        cost = self.runtime.network.send_cost(nbytes)
        self.runtime.post_message(self.rank, dest, tag, nbytes, WORLD, t0)
        self.clock = t0 + cost
        self._emit(
            self._new_event(
                "MPI_Send", peer=dest, tag=tag, nbytes=nbytes,
                time_start=t0, duration=cost,
            )
        )
        return 0
        yield  # pragma: no cover

    def _op_isend(self, dest: int, nbytes: int, tag: int):
        self._check_rank(dest, "isend")
        self._check_bytes(nbytes)
        t0 = self.clock
        cost = self.runtime.network.send_cost(nbytes)
        self.runtime.post_message(self.rank, dest, tag, nbytes, WORLD, t0)
        req = self.runtime.new_request(
            self.rank, ISEND, dest, tag, nbytes, WORLD, t0
        )
        req.finish(t0 + cost)
        self.clock = t0 + cost
        self._emit(
            self._new_event(
                "MPI_Isend", peer=dest, tag=tag, nbytes=nbytes, req=req.rid,
                time_start=t0, duration=cost,
            )
        )
        return req.rid
        yield  # pragma: no cover

    def _op_irecv(self, src: int, nbytes: int, tag: int):
        if src != ANY_SOURCE:
            self._check_rank(src, "irecv")
        self._check_bytes(nbytes)
        t0 = self.clock
        req = self.runtime.new_request(self.rank, IRECV, src, tag, nbytes, WORLD, t0)
        cost = self.runtime.network.overhead * 0.5
        self.clock = t0 + cost
        # Emit the event BEFORE posting: posting may match an already
        # arrived message and emit its completion immediately, and
        # sinks must see the Irecv first (wildcard resolution ordering).
        self._emit(
            self._new_event(
                "MPI_Irecv",
                peer=src,
                tag=tag,
                nbytes=nbytes,
                req=req.rid,
                wildcard=(src == ANY_SOURCE),
                time_start=t0,
                duration=cost,
            )
        )
        self.runtime.post_receive(req)
        return req.rid
        yield  # pragma: no cover

    def _op_recv(self, src: int, nbytes: int, tag: int):
        if src != ANY_SOURCE:
            self._check_rank(src, "recv")
        self._check_bytes(nbytes)
        t0 = self.clock
        req = self.runtime.new_request(self.rank, IRECV, src, tag, nbytes, WORLD, t0)
        self.runtime.post_receive(req)
        yield from self._await_request(req, "MPI_Recv")
        self._consume(req)
        self.clock = max(self.clock, req.completion_time)
        self._emit(
            self._new_event(
                "MPI_Recv",
                peer=req.actual_source,
                tag=tag,
                nbytes=req.actual_nbytes,
                wildcard=(src == ANY_SOURCE),
                time_start=t0,
                duration=self.clock - t0,
            )
        )
        # Like MPI_Status.MPI_SOURCE: the caller learns who sent it (the
        # task-farm pattern needs this to answer wildcard requests).
        return req.actual_source

    def _op_sendrecv(self, dest, sbytes, stag, src, rbytes, rtag):
        self._check_rank(dest, "sendrecv")
        if src != ANY_SOURCE:
            self._check_rank(src, "sendrecv")
        self._check_bytes(sbytes)
        self._check_bytes(rbytes)
        t0 = self.clock
        self.runtime.post_message(self.rank, dest, stag, sbytes, WORLD, t0)
        req = self.runtime.new_request(self.rank, IRECV, src, rtag, rbytes, WORLD, t0)
        self.runtime.post_receive(req)
        yield from self._await_request(req, "MPI_Sendrecv")
        self._consume(req)
        send_cost = self.runtime.network.send_cost(sbytes)
        self.clock = max(self.clock + send_cost, req.completion_time)
        self._emit(
            self._new_event(
                "MPI_Sendrecv",
                peer=dest,
                peer2=req.actual_source,
                tag=stag,
                tag2=rtag,
                nbytes=sbytes,
                nbytes2=req.actual_nbytes,
                wildcard=(src == ANY_SOURCE),
                time_start=t0,
                duration=self.clock - t0,
            )
        )
        return 0

    # -- request completion -------------------------------------------------

    def _await_request(self, req: Request, why: str):
        while not req.complete:
            self.blocked_on = f"{why} (req {req.rid}, peer {req.peer}, tag {req.tag})"
            yield
        self.blocked_on = None

    def _resolve_reqs(self, handles, count: int | None = None) -> list[Request]:
        if isinstance(handles, int):
            handles = [handles]
        elif count is not None:
            handles = list(handles)[: int(count)]
        reqs = []
        for rid in handles:
            req = self.runtime.requests.get(int(rid))
            if req is None or req.rank != self.rank:
                raise InvalidRequestError(
                    f"rank {self.rank}: unknown request handle {rid} (never "
                    "posted, or already completed by a wait or a test)"
                )
            reqs.append(req)
        return reqs

    def _consume(self, req: Request) -> None:
        """A wait or a test returned ``req``, or a blocking receive
        completed it: the runtime forgets it (a handle listed twice in
        one call is consumed once)."""
        self.runtime.requests.pop(req.rid, None)

    def _op_wait(self, handle: int):
        (req,) = self._resolve_reqs(handle)
        t0 = self.clock
        yield from self._await_request(req, "MPI_Wait")
        self.clock = max(self.clock, req.completion_time)
        self._consume(req)
        self._emit(
            self._new_event(
                "MPI_Wait", reqs=(req.rid,), time_start=t0, duration=self.clock - t0
            )
        )
        return 0

    def _op_waitall(self, handles, count: int):
        reqs = self._resolve_reqs(handles, count)
        t0 = self.clock
        for req in reqs:
            yield from self._await_request(req, "MPI_Waitall")
        if reqs:
            self.clock = max(self.clock, max(r.completion_time for r in reqs))
        for req in reqs:
            self._consume(req)
        self._emit(
            self._new_event(
                "MPI_Waitall",
                reqs=tuple(r.rid for r in reqs),
                time_start=t0,
                duration=self.clock - t0,
            )
        )
        return 0

    def _op_waitany(self, handles, count: int):
        reqs = self._resolve_reqs(handles, count)
        if not reqs:
            raise InvalidRequestError(f"rank {self.rank}: waitany on empty request list")
        t0 = self.clock
        while True:
            done = [r for r in reqs if r.complete]
            if done:
                break
            self.blocked_on = "MPI_Waitany"
            yield
        self.blocked_on = None
        winner = min(done, key=lambda r: (r.completion_time, r.rid))
        self.clock = max(self.clock, winner.completion_time)
        self._consume(winner)
        self._emit(
            self._new_event(
                "MPI_Waitany", reqs=(winner.rid,), time_start=t0,
                duration=self.clock - t0,
            )
        )
        return reqs.index(winner)

    def _op_waitsome(self, handles, count: int):
        reqs = self._resolve_reqs(handles, count)
        if not reqs:
            raise InvalidRequestError(f"rank {self.rank}: waitsome on empty request list")
        t0 = self.clock
        while True:
            done = [r for r in reqs if r.complete]
            if done:
                break
            self.blocked_on = "MPI_Waitsome"
            yield
        self.blocked_on = None
        self.clock = max(self.clock, max(r.completion_time for r in done))
        for req in done:
            self._consume(req)
        self._emit(
            self._new_event(
                "MPI_Waitsome",
                reqs=tuple(r.rid for r in done),
                time_start=t0,
                duration=self.clock - t0,
            )
        )
        return len(done)

    def _op_test(self, handle: int):
        (req,) = self._resolve_reqs(handle)
        t0 = self.clock
        cost = self.runtime.network.overhead * 0.1
        self.clock = t0 + cost
        if req.complete:
            self._consume(req)
            self._emit(
                self._new_event(
                    "MPI_Test", reqs=(req.rid,), time_start=t0, duration=cost
                )
            )
            return 1
        self._emit(self._new_event("MPI_Test", reqs=(), time_start=t0, duration=cost))
        return 0
        yield  # pragma: no cover

    # -- collectives -----------------------------------------------------

    def _collective(
        self, op: str, root: int, nbytes: int, comm: int = WORLD,
        payload: tuple | None = None,
    ):
        engine = self.runtime.collectives
        if root >= 0 and root >= engine.comms.size(comm):
            raise ProgramError(
                f"rank {self.rank}: {op} root {root} outside communicator "
                f"{comm} of size {engine.comms.size(comm)}"
            )
        self._check_bytes(nbytes)
        t0 = self.clock
        key = engine.enter(self.rank, comm, op, root, nbytes, t0, payload=payload)
        slot = engine.poll(key)
        while not slot.done:
            self.blocked_on = engine.describe_waiting(key)
            yield
        self.blocked_on = None
        self.clock = max(self.clock, slot.completion_time)
        return slot, t0

    def _traced_collective(
        self, op: str, root: int, nbytes: int, comm: int = WORLD
    ):
        slot, t0 = yield from self._collective(op, root, nbytes, comm)
        self._emit(
            self._new_event(
                op, nbytes=nbytes, root=root, comm=comm,
                time_start=t0, duration=self.clock - t0,
            )
        )
        return 0

    def _op_barrier(self):
        return (yield from self._traced_collective("MPI_Barrier", -1, 0))

    def _op_bcast(self, root: int, nbytes: int):
        return (yield from self._traced_collective("MPI_Bcast", root, nbytes))

    def _op_reduce(self, root: int, nbytes: int):
        return (yield from self._traced_collective("MPI_Reduce", root, nbytes))

    def _op_allreduce(self, nbytes: int):
        return (yield from self._traced_collective("MPI_Allreduce", -1, nbytes))

    def _op_gather(self, root: int, nbytes: int):
        return (yield from self._traced_collective("MPI_Gather", root, nbytes))

    def _op_scatter(self, root: int, nbytes: int):
        return (yield from self._traced_collective("MPI_Scatter", root, nbytes))

    def _op_allgather(self, nbytes: int):
        return (yield from self._traced_collective("MPI_Allgather", -1, nbytes))

    def _op_alltoall(self, nbytes: int):
        return (yield from self._traced_collective("MPI_Alltoall", -1, nbytes))

    def _op_scan(self, nbytes: int):
        return (yield from self._traced_collective("MPI_Scan", -1, nbytes))

    def _op_reduce_scatter(self, nbytes: int):
        return (yield from self._traced_collective("MPI_Reduce_scatter", -1, nbytes))

    # -- sub-communicators -------------------------------------------------

    def _op_comm_split(self, comm: int, color: int, key: int):
        """MPI_Comm_split: collective over ``comm``; returns the new
        communicator id (-1 for MPI_UNDEFINED colours < 0)."""
        slot, t0 = yield from self._collective(
            "MPI_Comm_split", -1, 0, comm, payload=(color, key)
        )
        new_comm = slot.results[self.rank]
        self._emit(
            self._new_event(
                "MPI_Comm_split",
                comm=comm,
                tag=color,
                peer=key,
                result_comm=new_comm,
                time_start=t0,
                duration=self.clock - t0,
            )
        )
        return new_comm

    def _op_barrier_on(self, comm: int):
        return (yield from self._traced_collective("MPI_Barrier", -1, 0, comm))

    def _op_bcast_on(self, comm: int, root: int, nbytes: int):
        return (yield from self._traced_collective("MPI_Bcast", root, nbytes, comm))

    def _op_reduce_on(self, comm: int, root: int, nbytes: int):
        return (yield from self._traced_collective("MPI_Reduce", root, nbytes, comm))

    def _op_allreduce_on(self, comm: int, nbytes: int):
        return (yield from self._traced_collective("MPI_Allreduce", -1, nbytes, comm))

    def _op_allgather_on(self, comm: int, nbytes: int):
        return (yield from self._traced_collective("MPI_Allgather", -1, nbytes, comm))

    def _op_alltoall_on(self, comm: int, nbytes: int):
        return (yield from self._traced_collective("MPI_Alltoall", -1, nbytes, comm))
