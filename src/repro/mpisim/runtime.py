"""The simulated MPI runtime: P ranks, cooperative scheduling, progress.

Each rank executes as a Python generator (the MiniMPI interpreter, or any
user-supplied generator function for tests); a generator ``yield``s when
its current MPI operation cannot complete.  The scheduler round-robins the
live ranks and detects deadlock when a full round makes no progress.

Virtual time: every rank owns a clock (microseconds).  Message arrival
times, receive completions and collective completions are computed with the
:class:`~repro.mpisim.netmodel.NetworkModel`.  The runtime is the
"machine" whose execution times the SIM-MPI replay engine predicts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from .collectives import CollectiveEngine
from .comm import RankComm
from .errors import DeadlockError, MPISimError
from .matching import Mailbox, Message
from .netmodel import NetworkModel
from .pmpi import OP_REQ_COMPLETE, NullSink, TraceSink
from .request import IRECV, Request


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    nprocs: int
    finish_times: list[float]  # per-rank final virtual clock (us)
    total_messages: int
    total_events: int
    rounds: int  # scheduler rounds (diagnostic)

    @property
    def elapsed(self) -> float:
        """Virtual execution time of the job (us) — max over ranks."""
        return max(self.finish_times) if self.finish_times else 0.0


class Runtime:
    """One simulated MPI job."""

    def __init__(
        self,
        nprocs: int,
        network: NetworkModel | None = None,
        tracer: TraceSink | None = None,
    ) -> None:
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        self.nprocs = nprocs
        self.network = network or NetworkModel()
        self.tracer = tracer or NullSink()
        self.ranks = [RankComm(r, self) for r in range(nprocs)]
        self.mailboxes = [Mailbox(r) for r in range(nprocs)]
        self.collectives = CollectiveEngine(nprocs, self.network)
        # Requests in flight: not yet completed by a blocking receive
        # or returned by a wait or a test (RankComm._consume drops them).
        self.requests: dict[int, Request] = {}
        # Posted (pending) receive requests per rank, in post order.
        self._posted: list[list[Request]] = [[] for _ in range(nprocs)]
        self._next_rid = 1
        self._send_seq = 0
        self.progress = 0  # bumped on any state change; deadlock detector
        self.total_messages = 0

    # ------------------------------------------------------------------
    # State transitions driven by RankComm.

    def post_message(
        self, src: int, dst: int, tag: int, nbytes: int, comm: int, send_time: float
    ) -> None:
        self._send_seq += 1
        arrival = send_time + self.network.transfer_time(nbytes)
        msg = Message(
            src=src, dst=dst, tag=tag, nbytes=nbytes, comm=comm,
            send_time=send_time, arrival_time=arrival, seq=self._send_seq,
        )
        self.mailboxes[dst].deliver(msg)
        self.total_messages += 1
        self.progress += 1
        self._progress_receives(dst)

    def new_request(
        self, rank: int, kind: str, peer: int, tag: int, nbytes: int,
        comm: int, post_time: float,
    ) -> Request:
        req = Request(
            rid=self._next_rid, rank=rank, kind=kind, peer=peer, tag=tag,
            nbytes=nbytes, comm=comm, post_time=post_time,
        )
        self._next_rid += 1
        self.requests[req.rid] = req
        return req

    def post_receive(self, req: Request) -> None:
        assert req.kind == IRECV
        self._posted[req.rank].append(req)
        # Posting is a state change: without counting it, a round where one
        # rank posts receives while the rest idle would look like deadlock.
        self.progress += 1
        self._progress_receives(req.rank)

    def _progress_receives(self, rank: int) -> None:
        """Match posted receives of ``rank`` against its mailbox, in post
        order (MPI posted-queue semantics)."""
        posted = self._posted[rank]
        if not posted:
            return
        mailbox = self.mailboxes[rank]
        still_pending: list[Request] = []
        for req in posted:
            msg = mailbox.match(req.peer, req.tag, req.comm)
            if msg is None:
                still_pending.append(req)
                continue
            completion = max(req.post_time, msg.arrival_time) + self.network.recv_cost(
                msg.nbytes
            )
            req.finish(completion, source=msg.src, nbytes=msg.nbytes)
            self.progress += 1
            self.ranks[rank].emit(
                (OP_REQ_COMPLETE, req.rid, msg.src, msg.nbytes, completion)
            )
        self._posted[rank] = still_pending

    # ------------------------------------------------------------------
    # Scheduling.

    def run(self, rank_main: Callable[[RankComm], Iterator[None]]) -> RunResult:
        """Execute ``rank_main(comm)`` — a generator function — on every rank.

        Returns the run result; raises :class:`DeadlockError` if the job
        wedges and propagates any :class:`MPISimError` from rank code.
        """
        for comm in self.ranks:
            comm.runtime = self
        try:
            rounds = self._schedule(rank_main)
            # Every rank is done: let a sink that deferred work finish it
            # inside the run, where its time and its errors belong.
            self.tracer.flush()
            self._check_leaks()
        finally:
            # ``ranks`` <-> ``RankComm.runtime`` is the one reference
            # cycle of a job; left in place it pins every Request until
            # a full collection.  The ranks need the way back only while
            # they execute.
            for comm in self.ranks:
                comm.runtime = None
        return RunResult(
            nprocs=self.nprocs,
            finish_times=[c.clock for c in self.ranks],
            total_messages=self.total_messages,
            total_events=sum(c.event_seq for c in self.ranks),
            rounds=rounds,
        )

    def _schedule(self, rank_main) -> int:
        """Round-robin the rank generators to completion; returns the
        number of scheduler rounds."""
        gens = {r: rank_main(self.ranks[r]) for r in range(self.nprocs)}
        live: deque[int] = deque(range(self.nprocs))
        rounds = 0
        while live:
            rounds += 1
            before = self.progress + self.collectives.entered
            finished: list[int] = []
            for rank in list(live):
                gen = gens[rank]
                try:
                    next(gen)
                except StopIteration:
                    finished.append(rank)
                    self.progress += 1
            for rank in finished:
                live.remove(rank)
            if live and self.progress + self.collectives.entered == before:
                blocked = {
                    r: self.ranks[r].blocked_on or "unknown wait state"
                    for r in live
                }
                raise DeadlockError(blocked)
        return rounds

    def _check_leaks(self) -> None:
        pending_recvs = sum(len(p) for p in self._posted)
        unmatched = sum(m.pending_count() for m in self.mailboxes)
        if pending_recvs:
            raise MPISimError(
                f"job finished with {pending_recvs} receive(s) never matched"
            )
        if unmatched:
            raise MPISimError(
                f"job finished with {unmatched} message(s) never received"
            )
