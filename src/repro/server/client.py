"""The retry/reconnect/resume client behind ``repro submit``.

A :class:`TraceClient` streams one rank's captured opcode stream to the
daemon as CYPK batch blobs.  The contract is exactly-once by sequence
number: the client keeps every batch (the ack means *in the session
log and ingested*; the fsync follows at the next server checkpoint),
and on any connection loss it reconnects with bounded exponential
backoff, learns the server's acked sequence from HELLO_ACK, and
re-sends from there — the server dedups anything it already has, so a
kill-and-restart of either side never duplicates or drops a batch.

Flow control: up to ``window`` batches may be in flight unacked.  The
server reads a connection's next frame only after it has ingested the
last one, so a slow server fills the socket buffers and TCP flow
control blocks ``sendall``.
"""

from __future__ import annotations

import socket
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core import packed
from repro.driver import capture_run
from repro.workloads import get as get_workload

from . import protocol as proto


def split_batches(stream: list, batch_events: int) -> list[bytes]:
    """Slice one rank's opcode-tuple stream into CYPK blobs of at most
    ``batch_events`` tuples each (markers count — the slicing unit is
    the opcode tuple, so any split point is valid)."""
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
    ) -> None:
        self.host, self.port = host, port
        self.job, self.rank, self.nranks = job, rank, nranks
        self.workload, self.scale = workload, scale
        self.window = window
        self.max_attempts = max_attempts
        self.backoff, self.backoff_cap = backoff, backoff_cap
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.acked_seq = 0
        self.reconnects = 0
        #: Times a reconnect found the server acked *less* than we had
        #: seen acked — possible after a crash (batches the server had
        #: not fsynced, or whose session had no checkpoint yet, are
        #: re-sent), must be zero across a graceful drain.
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

    def _stream_once(self, sock: socket.socket, blobs: list[bytes]) -> None:
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
        while self.acked_seq < len(blobs):
            # Fill the window, then block on one server frame.
            while (
                next_seq <= len(blobs)
                and next_seq - self.acked_seq <= self.window
            ):
                sock.sendall(proto.batch_frame(next_seq, blobs[next_seq - 1]))
                next_seq += 1
            kind, payload = proto.read_frame(sock)
            if kind == proto.BATCH_ACK:
                fields = proto.decode_control(payload)
                self.acked_seq = max(self.acked_seq, int(fields["acked_seq"]))
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

    # -- public API ------------------------------------------------------

    def send(self, blobs: list[bytes]) -> int:
        """Deliver all ``blobs`` exactly-once; returns the reconnect
        count.  Raises :class:`ClientError` after ``max_attempts``
        failed connections (backoff-capped) or a server rejection."""
        delay = self.backoff
        for attempt in range(self.max_attempts):
            sock = None
            try:
                sock = self._connect()
                self._stream_once(sock, blobs)
                return self.reconnects
            except _JobFinalized:
                return self.reconnects
            except ClientError:
                raise
            except (ConnectionError, proto.ProtocolError, OSError,
                    socket.timeout):
                self.reconnects += 1
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


#: Ranks :func:`submit_workload` streams at once, each on its own thread
#: and connection; the rest wait their turn, lowest rank first.
MAX_CONCURRENT_RANKS = 16


def capture_workload(workload: str, nprocs: int, scale: float = 1.0
                     ) -> dict[int, list]:
    """Run a registered workload under the capture sink (no local
    compression) — the per-rank opcode streams a client submits."""
    w = get_workload(workload)
    w.check_procs(nprocs)
    return capture_run(w.source, nprocs, w.defines(nprocs, scale)).streams


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
) -> dict:
    """Capture ``workload`` locally and stream every rank to the daemon,
    at most :data:`MAX_CONCURRENT_RANKS` ranks at a time; returns a
    summary dict."""
    streams = capture_workload(workload, nprocs, scale)
    per_rank_blobs = {
        rank: split_batches(stream, batch_events)
        for rank, stream in streams.items()
    }
    clients: dict[int, TraceClient] = {}

    def _send(rank: int) -> None:
        client = clients[rank] = TraceClient(
            host, port, job=job, rank=rank, nranks=nprocs,
            workload=workload, scale=scale, window=window,
            max_attempts=max_attempts, backoff=backoff,
        )
        client.send(per_rank_blobs[rank])

    with ThreadPoolExecutor(min(MAX_CONCURRENT_RANKS, nprocs)) as pool:
        futures = [pool.submit(_send, r) for r in sorted(per_rank_blobs)]
    for future in futures:
        future.result()  # every rank has run: raise the lowest one's error
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
        "acked_regressions": sum(
            c.acked_regressions for c in clients.values()
        ),
    }
