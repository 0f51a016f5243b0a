"""The retry/reconnect/resume client behind ``repro submit``.

A :class:`TraceClient` streams one rank's captured opcode stream to the
daemon as CYPK batch blobs.  The contract is exactly-once by sequence
number: the client keeps every batch until the server acks it durable
enough (the ack means *ingested*; durability follows at the next server
checkpoint), and on any connection loss it reconnects with bounded
exponential backoff, learns the server's acked sequence from HELLO_ACK,
and re-sends from there — the server dedups anything it already has,
so a kill-and-restart of either side never duplicates or drops a batch.

Flow control: up to ``window`` batches may be in flight unacked; a
THROTTLE frame pauses sending until the matching RESUME (acks keep
arriving while paused, since the server drains its buffered bytes to
the checkpoint log).
"""

from __future__ import annotations

import socket
import threading
import time

from repro.core import packed
from repro.driver import run_compiled
from repro.mpisim.pmpi import StreamCaptureSink
from repro.static.instrument import compile_minimpi
from repro.workloads import get as get_workload

from . import protocol as proto


def split_batches(stream: list, batch_events: int) -> list[bytes]:
    """Slice one rank's opcode-tuple stream into CYPK blobs of at most
    ``batch_events`` tuples each (markers count — the slicing unit is
    the callback tuple, so any split point is valid)."""
    if batch_events <= 0:
        raise ValueError("batch_events must be positive")
    blobs: list[bytes] = []
    for start in range(0, len(stream), batch_events):
        chunk = stream[start:start + batch_events]
        blobs.append(packed.encode_stream(chunk).to_bytes())
    if not blobs:
        blobs.append(packed.encode_stream([]).to_bytes())
    return blobs


class ClientError(Exception):
    """The client exhausted its reconnect budget or was rejected."""


class _JobFinalized(Exception):
    """HELLO rejected because the job already finalized — everything
    this rank acked is in the output; the send is complete."""


class TraceClient:
    """Stream one ``(job, rank)``'s batches with resume-on-reconnect."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        job: str,
        rank: int,
        nranks: int,
        workload: str,
        scale: float = 1.0,
        window: int = 32,
        max_attempts: int = 30,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        connect_timeout: float = 5.0,
        io_timeout: float = 60.0,
        drop_after_batches: int | None = None,
        torn_frame: bool = False,
        batch_delay: float = 0.0,
        stall_seconds: float | None = None,
    ) -> None:
        self.host, self.port = host, port
        self.job, self.rank, self.nranks = job, rank, nranks
        self.workload, self.scale = workload, scale
        self.window = window
        self.max_attempts = max_attempts
        self.backoff, self.backoff_cap = backoff, backoff_cap
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        #: Fault injection: hard-close the socket after sending this
        #: many batches on the *first* connection (client-disconnect
        #: scenario); ``torn_frame`` sends half a frame first (torn-frame
        #: scenario).  Both then reconnect and resume normally.
        self.drop_after_batches = drop_after_batches
        self.torn_frame = torn_frame
        #: Fault injection: sleep after each batch send (trickle sender
        #: for the stalled-rank scenario's *live* peer) / sleep once
        #: after the injected disconnect before reconnecting (the stall
        #: itself — long enough for the server's idle reaper to fire).
        self.batch_delay = batch_delay
        self.stall_seconds = stall_seconds
        self._stalled = False
        self.acked_seq = 0
        self.reconnects = 0
        self.throttles_seen = 0
        #: Times a reconnect found the server acked *less* than we had
        #: seen acked — expected after a hard crash (acked-not-durable
        #: batches are re-sent), must be zero across a graceful drain.
        self.acked_regressions = 0

    # -- one connection attempt -----------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.io_timeout)
        return sock

    def _hello(self, sock: socket.socket) -> int:
        sock.sendall(proto.control_frame(
            proto.HELLO,
            job=self.job, rank=self.rank, nranks=self.nranks,
            workload=self.workload, scale=self.scale,
        ))
        kind, payload = proto.read_frame(sock)
        fields = proto.decode_control(payload)
        if kind == proto.ERROR:
            if fields.get("code") == "finalized":
                raise _JobFinalized(fields.get("error", ""))
            raise ClientError(f"server rejected HELLO: {fields.get('error')}")
        if kind != proto.HELLO_ACK:
            raise proto.ProtocolError(
                f"expected HELLO_ACK, got {proto.KIND_NAMES.get(kind, kind)}"
            )
        return int(fields["acked_seq"])

    def _stream_once(self, sock: socket.socket, blobs: list[bytes],
                     first_connection: bool) -> None:
        """Send everything past the server's acked seq; raises
        ConnectionError/ProtocolError on trouble (caller reconnects)."""
        acked = self._hello(sock)
        if acked > len(blobs):
            raise ClientError(
                f"server acked {acked} batches but only {len(blobs)} exist"
            )
        if acked < self.acked_seq:
            self.acked_regressions += 1
        self.acked_seq = acked
        next_seq = acked + 1
        throttled = False
        sent_on_conn = 0
        while self.acked_seq < len(blobs):
            # Fill the window, then block on one server frame.
            while (
                not throttled
                and next_seq <= len(blobs)
                and next_seq - self.acked_seq <= self.window
            ):
                if first_connection and self.torn_frame and \
                        sent_on_conn == (self.drop_after_batches or 0):
                    frame = proto.batch_frame(next_seq, blobs[next_seq - 1])
                    sock.sendall(frame[:max(1, len(frame) // 2)])
                    sock.close()
                    raise ConnectionError("injected torn frame")
                sock.sendall(proto.batch_frame(next_seq, blobs[next_seq - 1]))
                next_seq += 1
                sent_on_conn += 1
                if self.batch_delay:
                    time.sleep(self.batch_delay)
                if first_connection and not self.torn_frame and \
                        self.drop_after_batches is not None and \
                        sent_on_conn >= self.drop_after_batches:
                    sock.close()
                    raise ConnectionError("injected disconnect")
            kind, payload = proto.read_frame(sock)
            if kind == proto.BATCH_ACK:
                fields = proto.decode_control(payload)
                self.acked_seq = max(self.acked_seq, int(fields["acked_seq"]))
            elif kind == proto.THROTTLE:
                throttled = True
                self.throttles_seen += 1
            elif kind == proto.RESUME:
                throttled = False
            elif kind == proto.ERROR:
                fields = proto.decode_control(payload)
                raise ClientError(f"server error: {fields.get('error')}")
            # other kinds (none today) are ignored
        # Everything acked: declare the end of stream.
        sock.sendall(proto.control_frame(proto.EOS, total=len(blobs)))
        while True:
            kind, payload = proto.read_frame(sock)
            if kind == proto.EOS_ACK:
                fields = proto.decode_control(payload)
                if not fields.get("final"):
                    raise ClientError("EOS not final despite full ack")
                return
            if kind == proto.ERROR:
                fields = proto.decode_control(payload)
                raise ClientError(f"server error: {fields.get('error')}")
            # THROTTLE/RESUME may still arrive; ignore

    # -- public API ------------------------------------------------------

    def send(self, blobs: list[bytes]) -> int:
        """Deliver all ``blobs`` exactly-once; returns the reconnect
        count.  Raises :class:`ClientError` after ``max_attempts``
        failed connections (backoff-capped) or a server rejection."""
        delay = self.backoff
        first = True
        for attempt in range(self.max_attempts):
            sock = None
            try:
                sock = self._connect()
                self._stream_once(sock, blobs, first)
                return self.reconnects
            except _JobFinalized:
                return self.reconnects
            except ClientError:
                raise
            except (ConnectionError, proto.ProtocolError, OSError,
                    socket.timeout):
                self.reconnects += 1
                first = False
                if self.stall_seconds is not None and not self._stalled:
                    self._stalled = True
                    time.sleep(self.stall_seconds)
                else:
                    time.sleep(delay)
                    delay = min(delay * 2, self.backoff_cap)
            finally:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
        raise ClientError(
            f"gave up after {self.max_attempts} attempts "
            f"(job={self.job} rank={self.rank}, acked={self.acked_seq})"
        )

    def status(self) -> dict:
        """One-shot ``STATUS`` probe on a fresh connection, without a
        ``HELLO``.

        The daemon sends ``STATUS_ACK`` (its ``server.*`` snapshot) only
        on a connection that has identified itself; a pre-``HELLO``
        ``STATUS`` is answered with ``ERROR`` ("HELLO required first"),
        which this method raises as :class:`ProtocolError` ("expected
        STATUS_ACK, got ERROR").  For counters without a session, start
        the daemon with ``repro serve --metrics-json PATH`` and read the
        snapshot it writes at drain."""
        with self._connect() as sock:
            sock.sendall(proto.control_frame(proto.STATUS))
            kind, payload = proto.read_frame(sock)
            if kind != proto.STATUS_ACK:
                raise proto.ProtocolError(
                    f"expected STATUS_ACK, got "
                    f"{proto.KIND_NAMES.get(kind, kind)}"
                )
            return proto.decode_control(payload)


def capture_workload(workload: str, nprocs: int, scale: float = 1.0
                     ) -> dict[int, list]:
    """Run a registered workload under the capture sink (no local
    compression) — the per-rank opcode streams a client submits."""
    w = get_workload(workload)
    w.check_procs(nprocs)
    compiled = compile_minimpi(w.source)
    capture = StreamCaptureSink()
    run_compiled(
        compiled, nprocs, defines=w.defines(nprocs, scale), tracer=capture
    )
    return capture.streams


def submit_workload(
    host: str,
    port: int,
    *,
    job: str,
    workload: str,
    nprocs: int,
    scale: float = 1.0,
    batch_events: int = 512,
    window: int = 32,
    max_attempts: int = 30,
    backoff: float = 0.05,
    parallel: bool = True,
    client_overrides: dict[int, dict] | None = None,
) -> dict:
    """Capture ``workload`` locally and stream every rank to the daemon;
    returns a summary dict.  ``client_overrides`` maps rank -> extra
    :class:`TraceClient` kwargs (the fault-injection knobs); the special
    key ``batch_events`` overrides that rank's batch size instead."""
    overrides = {r: dict(kw) for r, kw in (client_overrides or {}).items()}
    streams = capture_workload(workload, nprocs, scale)
    per_rank_blobs = {
        rank: split_batches(
            stream,
            overrides.get(rank, {}).pop("batch_events", batch_events),
        )
        for rank, stream in streams.items()
    }
    clients: dict[int, TraceClient] = {}
    errors: list[BaseException] = []

    def _send(rank: int) -> None:
        kwargs = dict(
            job=job, rank=rank, nranks=nprocs, workload=workload,
            scale=scale, window=window, max_attempts=max_attempts,
            backoff=backoff,
        )
        kwargs.update(overrides.get(rank, {}))
        client = TraceClient(host, port, **kwargs)
        clients[rank] = client
        try:
            client.send(per_rank_blobs[rank])
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    ranks = sorted(per_rank_blobs)
    if parallel:
        threads = [
            threading.Thread(target=_send, args=(r,), daemon=True)
            for r in ranks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    else:
        for r in ranks:
            _send(r)
    if errors:
        raise errors[0]
    return {
        "job": job,
        "workload": workload,
        "nprocs": nprocs,
        "batches": sum(len(b) for b in per_rank_blobs.values()),
        "bytes": sum(len(x) for b in per_rank_blobs.values() for x in b),
        "max_batch_bytes": max(
            (len(x) for b in per_rank_blobs.values() for x in b), default=0
        ),
        "reconnects": sum(c.reconnects for c in clients.values()),
        "throttles_seen": sum(c.throttles_seen for c in clients.values()),
        "acked_regressions": sum(
            c.acked_regressions for c in clients.values()
        ),
    }
