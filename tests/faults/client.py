"""Client-side fault injection for the ingest server.

:class:`FaultClient` is a :class:`~repro.server.client.TraceClient`
whose socket misbehaves on cue.  It overrides only ``_connect``: the
socket it returns watches the frames the client sends, counts the BATCH
frames by their header (``proto.frame_lengths``) and, on the first
connection, hard-closes after the Nth batch or tears the batch after
it in half.  It can also sleep after every batch (a trickling rank) and
stall once before its first reconnect (a rank gone silent past the
server's idle timeout).  Everything after the fault is the product's
own retry, reconnect and resume.

:func:`submit` is ``submit_workload`` with a fault plan per rank.
"""

from __future__ import annotations

import threading
import time

from repro.server import protocol as proto
from repro.server.client import TraceClient, capture_workload, split_batches


class _FaultSocket:
    """A connected socket that injects the client's faults into its
    BATCH frames; every other call goes to the real socket."""

    def __init__(self, sock, client: "FaultClient", first: bool) -> None:
        self._sock, self._client, self._first = sock, client, first
        self._batches = 0  # BATCH frames sent on this connection

    def sendall(self, frame: bytes) -> None:
        kind, _ = proto.frame_lengths(frame[:proto.HEADER_SIZE])
        if kind != proto.BATCH:
            self._sock.sendall(frame)
            return
        c = self._client
        if self._first and c.torn_frame and \
                self._batches == (c.drop_after_batches or 0):
            self._sock.sendall(frame[:max(1, len(frame) // 2)])
            self._sock.close()
            raise ConnectionError("injected torn frame")
        self._sock.sendall(frame)
        self._batches += 1
        if c.batch_delay:
            time.sleep(c.batch_delay)
        if self._first and not c.torn_frame and \
                c.drop_after_batches is not None and \
                self._batches >= c.drop_after_batches:
            self._sock.close()
            raise ConnectionError("injected disconnect")

    def __getattr__(self, name):
        return getattr(self._sock, name)


class FaultClient(TraceClient):
    """A :class:`TraceClient` with seeded connection faults.

    * ``drop_after_batches`` — hard-close the socket after sending this
      many batches on the first connection attempt;
    * ``torn_frame`` — instead, send half of the batch after those
      (the first, by default) and close;
    * ``batch_delay`` — sleep this long after every batch sent;
    * ``stall_seconds`` — sleep this long once, before the first
      reconnect.
    """

    def __init__(self, *args, drop_after_batches: int | None = None,
                 torn_frame: bool = False, batch_delay: float = 0.0,
                 stall_seconds: float | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.drop_after_batches = drop_after_batches
        self.torn_frame = torn_frame
        self.batch_delay = batch_delay
        self.stall_seconds = stall_seconds
        self.attempts = 0

    def _connect(self):
        self.attempts += 1
        if self.attempts == 2 and self.stall_seconds is not None:
            time.sleep(self.stall_seconds)
        return _FaultSocket(super()._connect(), self, self.attempts == 1)


def submit(port: int, *, job: str, workload: str, nprocs: int,
           scale: float, batch_events: int, max_attempts: int = 30,
           faults: dict[int, dict] | None = None) -> dict:
    """Capture ``workload`` and stream every rank to the daemon on
    ``port``, one :class:`FaultClient` thread per rank.  ``faults`` maps
    a rank to its :class:`FaultClient` keyword arguments; the key
    ``batch_events`` sets that rank's batch size instead.  Returns the
    summary counters the scenarios check."""
    faults = {rank: dict(kw) for rank, kw in (faults or {}).items()}
    streams = capture_workload(workload, nprocs, scale)
    blobs = {
        rank: split_batches(
            stream, faults.get(rank, {}).pop("batch_events", batch_events)
        )
        for rank, stream in streams.items()
    }
    clients = {
        rank: FaultClient(
            "127.0.0.1", port, job=job, rank=rank, nranks=nprocs,
            workload=workload, scale=scale, max_attempts=max_attempts,
            **faults.get(rank, {}),
        )
        for rank in blobs
    }
    errors: list[BaseException] = []

    def _send(rank: int) -> None:
        try:
            clients[rank].send(blobs[rank])
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=_send, args=(rank,), daemon=True)
        for rank in sorted(blobs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return {
        "max_batch_bytes": max(len(b) for bs in blobs.values() for b in bs),
        "reconnects": sum(c.reconnects for c in clients.values()),
        "acked_regressions": sum(
            c.acked_regressions for c in clients.values()
        ),
    }
