"""The asyncio ingest daemon behind ``repro serve``.

One process, one event loop, many concurrent clients.  Each connection
speaks the framed protocol (:mod:`repro.server.protocol`) on behalf of
one ``(job, rank)``; the daemon keeps a live
:class:`~repro.core.intra.IntraProcessCompressor` per job and ingests
every acked batch immediately, so the invariant at all times — live or
after crash recovery — is *compressor state equals batches 1..acked*.

Robustness machinery (docs/INTERNALS.md §13):

* **Backpressure** — acked-but-not-durable batch bytes are bounded by a
  high/low watermark pair.  Crossing the high watermark broadcasts a
  THROTTLE frame and parks every reader on a gate (the daemon stops
  reading sockets — kernel TCP flow control does the rest); the
  checkpoint loop spills the buffered batches to the session logs,
  and dropping under the low watermark broadcasts RESUME and reopens
  the gate.  A single firehose session is additionally spilled inline
  when it alone crosses the per-session watermark.  No queue anywhere
  is unbounded.
* **Idle quarantine** — a rank silent past the idle timeout is
  quarantined through PR 4's lenient path (stage ``"server"``); the
  job can finalize without it.  A quarantined rank that reconnects
  before its job finalizes is revived and resumes exactly where its
  durable log ends.
* **Checkpoints** — every dirty session is checkpointed on a short
  period (append+fsync batch log, atomic meta with a generation
  counter); crash recovery salvages the newest valid checkpoint per
  session, re-ingests the durable batches, and tells each returning
  client its acked sequence so the stream resumes exactly-once.
* **Drain** — SIGTERM stops the listener, checkpoints everything,
  finalizes complete jobs (merge + atomic trace save), and exits;
  acked batches are never lost.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import struct
import threading
import time
from dataclasses import dataclass, field

from repro import obs
from repro.core import packed, serialize
from repro.core.errors import StreamMismatchError
from repro.core.intra import CypressConfig, IntraProcessCompressor
from repro.core.quarantine import QuarantinedRank, QuarantineReport
from repro.static.instrument import compile_minimpi
from repro.workloads import get as get_workload

from . import protocol as proto
from .session import SessionState, SessionStore, check_job_id

_CRC = struct.Struct("<I")


@dataclass
class ServerConfig:
    """Tunables of the ingest daemon."""

    state_dir: str
    out_dir: str
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is reported back
    #: Global watermarks on acked-but-not-durable batch bytes.
    high_watermark: int = 8 << 20
    low_watermark: int = 2 << 20
    #: One session alone crossing this is spilled inline.
    session_watermark: int = 2 << 20
    checkpoint_interval: float = 0.25
    idle_timeout: float = 30.0
    #: Fault injection (faultsmoke --server): hard-exit the process
    #: after the Nth ingested batch / Nth checkpoint — simulates a
    #: crash at a seeded point, bypassing every cleanup path.
    kill_after_batches: int | None = None
    kill_after_checkpoints: int | None = None
    metrics_json: str | None = None
    #: Per-job compressor memory budget (bytes).  Arms the bounded
    #: streaming mode: finalized ranks fold incrementally into a partial
    #: merge, cold ranks spill under ``state_dir/spill/<job>/``, and the
    #: ingest watermark shrinks by any unevictable overage so TCP
    #: backpressure slows clients instead of the daemon ballooning.
    memory_budget: int | None = None


@dataclass
class JobState:
    """One job: its compressor plus every rank's session."""

    job: str
    workload: str
    scale: float
    nranks: int
    compressor: IntraProcessCompressor
    sessions: dict[int, SessionState] = field(default_factory=dict)
    finalized: bool = False

    def complete(self) -> bool:
        """Every rank present and either finalized or quarantined."""
        if len(self.sessions) < self.nranks:
            return False
        return all(
            s.finalized or s.quarantined is not None
            for s in self.sessions.values()
        )


def _build_compressor(
    workload: str, nranks: int, server_config: ServerConfig, jobid: str
) -> IntraProcessCompressor:
    compiled = compile_minimpi(get_workload(workload).source)
    config = None
    if server_config.memory_budget is not None:
        config = CypressConfig(
            memory_budget_bytes=server_config.memory_budget,
            spill_dir=os.path.join(server_config.state_dir, "spill", jobid),
        )
    comp = IntraProcessCompressor(compiled.cst, config=config)
    # The fold domain is every rank of the job — quarantined ranks
    # simply never seal; finalize folds around them explicitly.
    comp.enable_incremental_fold(nranks=nranks, domain=range(nranks))
    return comp


class CypressTraceServer:
    """The daemon.  Construct, optionally :meth:`recover`, then
    :meth:`serve` (or use :class:`ServerThread` from tests)."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.store = SessionStore(config.state_dir)
        os.makedirs(config.out_dir, exist_ok=True)
        self.jobs: dict[str, JobState] = {}
        self.metrics: dict[str, float] = {}
        self._buffered = 0
        self._throttled = False
        self._gate = asyncio.Event()
        self._gate.set()
        self._drain_event = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        self._server: asyncio.base_events.Server | None = None
        self._batches_ingested = 0
        self._checkpoints_done = 0
        self.port: int | None = None

    # -- metrics ---------------------------------------------------------

    def _count(self, name: str, n: float = 1) -> None:
        self.metrics[name] = self.metrics.get(name, 0) + n
        reg = obs.active()
        if reg is not None:
            reg.counter_add(name, n)

    def _gauge(self, name: str, value: float) -> None:
        self.metrics[name] = value
        reg = obs.active()
        if reg is not None:
            reg.gauge_set(name, value)

    def _gauge_max(self, name: str, value: float) -> None:
        if value > self.metrics.get(name, 0):
            self.metrics[name] = value
        reg = obs.active()
        if reg is not None:
            reg.gauge_max(name, value)

    def metrics_snapshot(self) -> dict:
        snap = dict(self.metrics)
        snap["server.sessions"] = sum(
            len(j.sessions) for j in self.jobs.values()
        )
        snap["server.jobs"] = len(self.jobs)
        snap["server.buffered_bytes"] = self._buffered
        budget: dict[str, int] = {}
        for job in self.jobs.values():
            bc = job.compressor.budget_counters
            if bc is not None:
                for key, value in bc.as_metrics().items():
                    budget[key] = budget.get(key, 0) + value
        snap.update(budget)
        return snap

    def _effective_high_watermark(self) -> int:
        """The high watermark, shrunk by any compressor live-bytes
        overage the budget enforcer could not evict (pending wildcard
        receives pin their ranks in memory).  Never below the low
        watermark: gating ingest entirely on unevictable state would
        deadlock the very batches that resolve the wildcards."""
        cfg = self.config
        high = cfg.high_watermark
        if cfg.memory_budget is None:
            return high
        over = 0
        for job in self.jobs.values():
            bc = job.compressor.budget_counters
            if bc is not None:
                over += max(0, bc.live_bytes - cfg.memory_budget)
        if over:
            high = max(cfg.low_watermark, high - over)
        return high

    # -- recovery --------------------------------------------------------

    def recover(self) -> int:
        """Rebuild every session from the newest valid checkpoint and
        re-ingest its durable batches; returns the session count."""
        recovered = 0
        for rec in self.store.load_all():
            session = rec.to_state()
            if not session.workload:
                continue  # pre-identity checkpoint; client will restart
            job = self._job_for(session)
            job.sessions[session.rank] = session
            for _seq, blob in rec.batches:
                self._ingest_blob(job, session, blob)
            if session.finalized and session.quarantined is None:
                # A recovered rank whose stream already ended is sealed
                # exactly as its live EOS sealed it.
                job.compressor.seal_rank(session.rank)
            recovered += 1
            self._count("server.recoveries")
        for job in self.jobs.values():
            self._maybe_finalize_job(job)
        return recovered

    def _job_for(self, session: SessionState) -> JobState:
        job = self.jobs.get(session.job)
        if job is None:
            job = JobState(
                job=session.job,
                workload=session.workload,
                scale=session.scale,
                nranks=session.nranks,
                compressor=_build_compressor(
                    session.workload, session.nranks, self.config,
                    session.job,
                ),
            )
            self.jobs[session.job] = job
        return job

    # -- ingest ----------------------------------------------------------

    def _ingest_blob(self, job: JobState, session: SessionState,
                     blob: bytes, items: list | None = None) -> None:
        """Feed one acked batch into the job compressor.  ``items`` is
        the batch as :meth:`_validate_blob` already decoded it (recovery
        replay has none and decodes here, once).  A CST/stream mismatch
        quarantines the rank (lenient path); later batches for a
        mismatch-quarantined rank are acked but not ingested."""
        if session.quarantined is not None and \
                session.quarantined.stage == "intra":
            session.quarantined.events += packed.event_count(blob)
            return
        if items is None:
            items = packed.decode_stream(blob)
        try:
            job.compressor.ingest_stream(session.rank, items)
        except StreamMismatchError as exc:
            # A mismatch quarantine is permanent (never revived), so the
            # rank also leaves the fold domain — this unstalls the
            # ascending fold barrier for the ranks behind it.
            job.compressor.discard_rank(session.rank)
            session.quarantined = QuarantinedRank(
                rank=session.rank, stage="intra", error=str(exc),
                events=packed.event_count(blob),
            )
            session.mark_meta_dirty()
            self._count("server.quarantines")

    @staticmethod
    def _validate_blob(blob: bytes) -> list:
        """Reject a non-CYPK batch payload before it can be acked (and
        thus before it can poison the durable batch log); returns the
        decoded items so the ingest does not decode them again."""
        if not packed.is_packed(blob):
            raise proto.ProtocolError("batch payload is not a CYPK stream")
        try:
            return packed.decode_stream(blob)
        except (*packed.ENCODE_ERRORS, ValueError, IndexError) as exc:
            raise proto.ProtocolError(f"undecodable batch payload: {exc}")

    def _maybe_resume(self) -> None:
        if self._throttled and self._buffered <= self.config.low_watermark:
            self._throttled = False
            self._gate.set()
            self._broadcast(proto.control_frame(
                proto.RESUME, buffered=self._buffered,
            ))

    def _broadcast(self, frame: bytes) -> None:
        for writer in list(self._writers):
            try:
                writer.write(frame)
            except Exception:
                pass

    # -- checkpoints -----------------------------------------------------

    def _checkpoint_session(self, session: SessionState) -> None:
        spilled = self.store.checkpoint(session)
        self._buffered -= spilled
        self._gauge("server.buffered_bytes", self._buffered)
        self._count("server.checkpoints")
        self._checkpoints_done += 1
        kac = self.config.kill_after_checkpoints
        if kac is not None and self._checkpoints_done >= kac:
            os._exit(137)
        self._maybe_resume()

    def checkpoint_all(self) -> int:
        done = 0
        for job in self.jobs.values():
            for session in job.sessions.values():
                if session.dirty:
                    self._checkpoint_session(session)
                    done += 1
        return done

    async def _checkpoint_loop(self) -> None:
        while not self._drain_event.is_set():
            await asyncio.sleep(self.config.checkpoint_interval)
            self.checkpoint_all()

    # -- idle reaper -----------------------------------------------------

    def _reap_idle(self) -> None:
        now = time.monotonic()
        timeout = self.config.idle_timeout
        for job in self.jobs.values():
            if job.finalized:
                continue
            stalled_job = True
            for session in job.sessions.values():
                idle = now - session.last_activity
                if session.finalized or session.quarantined is not None:
                    continue
                if idle <= timeout:
                    stalled_job = False
                    continue
                session.quarantined = QuarantinedRank(
                    rank=session.rank, stage="server",
                    error=f"idle timeout after {timeout:g}s",
                    events=0,
                )
                session.mark_meta_dirty()
                self._count("server.quarantines")
                self._count("server.idle_quarantines")
            # Ranks that never connected: once every present rank is
            # settled and the job has been idle past the timeout, the
            # missing ranks are quarantined so the job can finalize.
            if job.sessions and stalled_job and \
                    len(job.sessions) < job.nranks:
                last = max(s.last_activity for s in job.sessions.values())
                if now - last > timeout:
                    for rank in range(job.nranks):
                        if rank in job.sessions:
                            continue
                        session = SessionState(
                            job=job.job, rank=rank, nranks=job.nranks,
                            workload=job.workload, scale=job.scale,
                        )
                        session.quarantined = QuarantinedRank(
                            rank=rank, stage="server",
                            error="rank never connected before idle "
                                  f"timeout ({timeout:g}s)",
                            events=0,
                        )
                        session.mark_meta_dirty()
                        job.sessions[rank] = session
                        self._count("server.quarantines")
                        self._count("server.idle_quarantines")
            self._maybe_finalize_job(job)

    async def _reaper_loop(self) -> None:
        period = max(0.05, self.config.idle_timeout / 4)
        while not self._drain_event.is_set():
            await asyncio.sleep(period)
            self._reap_idle()

    # -- finalize --------------------------------------------------------

    def out_path(self, job: str) -> str:
        return os.path.join(self.config.out_dir, f"{job}.cyp")

    def _maybe_finalize_job(self, job: JobState) -> None:
        if job.finalized or not job.complete():
            return
        healthy = [
            r for r in range(job.nranks)
            if job.sessions[r].quarantined is None
        ]
        if not healthy:
            return  # nothing mergeable; sessions stay for inspection
        for session in job.sessions.values():
            if session.dirty:
                self._checkpoint_session(session)
        merged = job.compressor.merged(nranks=job.nranks, ranks=healthy)
        job.compressor.close_spill()
        serialize.save(merged, self.out_path(job.job))
        report = QuarantineReport()
        for session in job.sessions.values():
            if session.quarantined is not None:
                report.add(session.quarantined)
        if report:
            qpath = os.path.join(
                self.config.out_dir, f"{job.job}.quarantine.json"
            )
            serialize.atomic_write(qpath, report.to_json().encode())
        job.finalized = True
        self._count("server.jobs_finalized")

    # -- connection handling ---------------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader
                          ) -> tuple[int, bytes]:
        header = await reader.readexactly(proto.HEADER_SIZE)
        kind, length = proto.frame_lengths(header)
        payload = await reader.readexactly(length)
        (crc,) = _CRC.unpack(await reader.readexactly(proto.CRC_SIZE))
        proto.check_frame(kind, length, payload, crc)
        return kind, payload

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        session: SessionState | None = None
        job: JobState | None = None
        try:
            while not self._drain_event.is_set():
                await self._gate.wait()
                kind, payload = await self._read_frame(reader)
                if kind == proto.HELLO:
                    session, job = self._on_hello(
                        proto.decode_control(payload), writer
                    )
                elif session is None or job is None:
                    writer.write(proto.control_frame(
                        proto.ERROR, error="HELLO required first"
                    ))
                    if kind in (proto.HEARTBEAT, proto.STATUS):
                        # A probe before HELLO is harmless — answer the
                        # ERROR and keep the reader task alive so the
                        # client can still identify itself.
                        await writer.drain()
                        continue
                    break  # data frames without identity are fatal
                elif kind == proto.BATCH:
                    self._on_batch(job, session, payload, writer)
                elif kind == proto.EOS:
                    self._on_eos(
                        job, session, proto.decode_control(payload), writer
                    )
                elif kind == proto.HEARTBEAT:
                    session.touch()
                elif kind == proto.STATUS:
                    writer.write(proto.control_frame(
                        proto.STATUS_ACK, **{
                            k: v for k, v in
                            self.metrics_snapshot().items()
                        }
                    ))
                else:
                    writer.write(proto.control_frame(
                        proto.ERROR,
                        error=f"unexpected frame kind {kind}",
                    ))
                    break
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # peer gone / torn frame: session state is preserved
        except proto.ProtocolError as exc:
            self._count("server.protocol_errors")
            try:
                writer.write(proto.control_frame(
                    proto.ERROR, error=str(exc)
                ))
                await writer.drain()
            except Exception:
                pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    def _on_hello(self, fields: dict, writer: asyncio.StreamWriter
                  ) -> tuple[SessionState, JobState]:
        jobid = check_job_id(fields["job"])
        rank = int(fields["rank"])
        nranks = int(fields["nranks"])
        workload = str(fields["workload"])
        scale = float(fields.get("scale", 1.0))
        get_workload(workload)  # validate before creating state
        jobstate = self.jobs.get(jobid)
        if jobstate is not None and jobstate.finalized:
            writer.write(proto.control_frame(
                proto.ERROR, code="finalized",
                error=f"job {jobid!r} already finalized",
            ))
            raise ConnectionError("late HELLO on finalized job")
        session = None if jobstate is None else jobstate.sessions.get(rank)
        if session is None:
            session = SessionState(
                job=jobid, rank=rank, nranks=nranks,
                workload=workload, scale=scale,
            )
            jobstate = self._job_for(session)
            jobstate.sessions[rank] = session
        session.touch()
        revived = False
        if session.quarantined is not None and \
                session.quarantined.stage == "server":
            session.quarantined = None
            session.mark_meta_dirty()
            revived = True
            self._count("server.revivals")
        writer.write(proto.control_frame(
            proto.HELLO_ACK,
            proto_version=proto.PROTO_VERSION,
            acked_seq=session.acked_seq,
            throttled=self._throttled,
            revived=revived,
        ))
        self._count("server.hellos")
        return session, jobstate

    def _on_batch(self, job: JobState, session: SessionState,
                  payload: bytes, writer: asyncio.StreamWriter) -> None:
        seq, blob = proto.decode_batch(payload)
        if session.quarantined is not None and \
                session.quarantined.stage == "server":
            # The stalled rank woke up on its existing connection.
            session.quarantined = None
            session.mark_meta_dirty()
            self._count("server.revivals")
        items = None
        if seq > session.acked_seq:
            items = self._validate_blob(blob)
        try:
            fresh = session.accept(seq, blob)
        except ValueError as exc:  # sequence gap: client bug or replay skew
            raise proto.ProtocolError(str(exc))
        if fresh:
            self._ingest_blob(job, session, blob, items)
            self._buffered += len(blob)
            self._count("server.batches")
            self._batches_ingested += 1
            kab = self.config.kill_after_batches
            if kab is not None and self._batches_ingested >= kab:
                os._exit(137)  # seeded crash point, pre-ack
            self._gauge("server.buffered_bytes", self._buffered)
            self._gauge_max("server.buffered_bytes_max", self._buffered)
            cfg = self.config
            if session.buffered_bytes >= cfg.session_watermark:
                self._checkpoint_session(session)
            high = self._effective_high_watermark()
            if self._buffered >= high and not self._throttled:
                self._throttled = True
                self._gate.clear()
                self._count("server.throttles")
                self._broadcast(proto.control_frame(
                    proto.THROTTLE, buffered=self._buffered,
                    high=high,
                ))
        else:
            self._count("server.dup_batches")
        writer.write(proto.control_frame(
            proto.BATCH_ACK, seq=seq, acked_seq=session.acked_seq,
            dup=not fresh,
        ))

    def _on_eos(self, job: JobState, session: SessionState,
                fields: dict, writer: asyncio.StreamWriter) -> None:
        total = int(fields["total"])
        if total < session.acked_seq:
            writer.write(proto.control_frame(
                proto.ERROR,
                error=f"EOS total {total} below acked {session.acked_seq}",
            ))
            return
        session.eos_seq = total
        session.mark_meta_dirty()
        session.touch()
        final = session.finalized
        # Make the EOS (and with it every batch of this session) durable
        # *before* acking it: once the client sees ``final`` it is free
        # to exit, so a later crash must find the whole session on disk
        # and be able to re-finalize the job from recovery alone.
        self._checkpoint_session(session)
        writer.write(proto.control_frame(
            proto.EOS_ACK, acked_seq=session.acked_seq, final=final,
        ))
        if final:
            if session.quarantined is None:
                # Stream complete and durable: under a memory budget it
                # can fold into the partial merge now.
                job.compressor.seal_rank(session.rank)
            self._maybe_finalize_job(job)

    # -- lifecycle -------------------------------------------------------

    def request_drain(self) -> None:
        self._drain_event.set()
        self._gate.set()  # unpark readers so they observe the drain

    async def serve(self, *, install_signals: bool = True,
                    on_started=None) -> None:
        """Run until drained (SIGTERM / :meth:`request_drain`)."""
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_drain)
                except (NotImplementedError, RuntimeError):
                    pass
        if on_started is not None:
            on_started(self)
        tasks = [
            asyncio.ensure_future(self._checkpoint_loop()),
            asyncio.ensure_future(self._reaper_loop()),
        ]
        try:
            await self._drain_event.wait()
        finally:
            await self._drain()
            for t in tasks:
                t.cancel()
            for t in tasks:
                try:
                    await t
                except (asyncio.CancelledError, Exception):
                    pass

    async def _drain(self) -> None:
        """Stop accepting, flush + checkpoint + finalize, hang up."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Hang up silently: clients see a plain connection loss, retry
        # with backoff, and resume against the restarted daemon (an
        # ERROR frame here would read as a fatal rejection).
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        self.checkpoint_all()
        for job in self.jobs.values():
            self._maybe_finalize_job(job)
        self._count("server.drains")
        if self.config.metrics_json:
            snap = self.metrics_snapshot()
            serialize.atomic_write(
                self.config.metrics_json,
                json.dumps(snap, indent=2, sort_keys=True).encode(),
            )


# ---------------------------------------------------------------------------
# In-process harness for tests: the daemon on a background thread.


class ServerThread:
    """Run a :class:`CypressTraceServer` on its own thread + loop."""

    def __init__(self, config: ServerConfig, *, recover: bool = True) -> None:
        self.server = CypressTraceServer(config)
        if recover:
            self.server.recover()
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.serve(
            install_signals=False,
            on_started=lambda _srv: self._ready.set(),
        )

    def start(self) -> int:
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start")
        assert self.server.port is not None
        return self.server.port

    def stop(self, timeout: float = 30) -> None:
        """Graceful drain (checkpoints + finalize), then join."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not drain in time")

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
