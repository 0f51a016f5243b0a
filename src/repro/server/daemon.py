"""The asyncio ingest daemon behind ``repro serve``.

One process, one event loop, many concurrent clients.  Each connection
speaks the framed protocol (:mod:`repro.server.protocol`) on behalf of
one ``(job, rank)``; the daemon keeps a live
:class:`~repro.core.intra.IntraProcessCompressor` per job, appends every
fresh batch to its session's log and then ingests it, so the invariant
at all times — live or after crash recovery — is *compressor state
equals batches 1..acked*.

Robustness machinery (docs/INTERNALS.md §13):

* **No batch in memory** — an accepted batch goes straight to its
  session log (no fsync), so a crashed process loses no acked batch.
  Each connection ingests a batch before it reads its next frame, so
  there is no queue to bound: a slow ingest stops the reads, and
  kernel TCP flow control slows the client.  The protocol's two
  throttle/resume frame kinds stay reserved and are no longer sent.
* **Idle quarantine** — a rank silent past the idle timeout is
  quarantined through PR 4's lenient path (stage ``"server"``); the
  job can finalize without it.  A quarantined rank that reconnects
  before its job finalizes is revived and resumes exactly where its
  durable log ends.
* **One file a session** — the session log holds the identity, the
  batches and the EOS / idle-quarantine records; every session with
  appends since its last fsync is checkpointed (its log fsynced) on a
  short period.  Crash recovery adopts every log that opens with a
  valid identity, re-ingests its durable batches (re-deriving any
  mismatch quarantine), and tells each returning client its acked
  sequence so the stream resumes exactly-once.
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
    checkpoint_interval: float = 0.25
    idle_timeout: float = 30.0
    #: Hard-exit the process (status 137) after the Nth ingested batch,
    #: bypassing every cleanup path: a crash at a seeded point.  The
    #: server fault matrix and the ``serve_mixed`` benchmark set it
    #: through ``--kill-after-batches``.
    kill_after_batches: int | None = None
    metrics_json: str | None = None
    #: Per-job compressor memory budget (bytes).  Arms the bounded
    #: streaming mode: finalized ranks fold incrementally into a partial
    #: merge, and cold ranks spill under ``state_dir/spill/<job>/``.
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
    :meth:`serve`."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.store = SessionStore(config.state_dir)
        os.makedirs(config.out_dir, exist_ok=True)
        self.jobs: dict[str, JobState] = {}
        self.metrics: dict[str, float] = {}
        #: Bytes appended to the session logs since the checkpoint
        #: loop's last pass fsynced them (``server.buffered_bytes``).
        self._buffered = 0
        self._drain_event = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        self._server: asyncio.base_events.Server | None = None
        self._batches_ingested = 0
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

    # -- recovery --------------------------------------------------------

    def recover(self) -> int:
        """Rebuild every session from its log's valid prefix and
        re-ingest its durable batches; returns the session count."""
        recovered = 0
        for rec in self.store.load_all():
            session = rec.session
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
        except packed.PackedStreamError as exc:
            raise proto.ProtocolError(f"undecodable batch payload: {exc}")

    # -- checkpoints -----------------------------------------------------

    def _checkpoint_session(self, session: SessionState) -> None:
        self.store.checkpoint(session)
        self._count("server.checkpoints")

    def checkpoint_all(self) -> int:
        done = 0
        for job in self.jobs.values():
            for session in job.sessions.values():
                if session.dirty:
                    self._checkpoint_session(session)
                    done += 1
        self._buffered = 0  # every log is fsynced now
        self._gauge("server.buffered_bytes", 0)
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
                self.store.record_state(session)
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
                        session = self.store.create(
                            job.job, rank, job.nranks, job.workload,
                            job.scale,
                        )
                        session.quarantined = QuarantinedRank(
                            rank=rank, stage="server",
                            error="rank never connected before idle "
                                  f"timeout ({timeout:g}s)",
                            events=0,
                        )
                        self.store.record_state(session)
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

    @staticmethod
    def _hello_identity(fields: dict) -> tuple[str, int, int, str, float]:
        """``(job, rank, nranks, workload, scale)`` of a HELLO, checked
        before any state is created: a session the daemon cannot hold
        is a :class:`~repro.server.protocol.ProtocolError`, which the
        client reads as a rejection, not as a reason to retry."""
        missing = [
            k for k in ("job", "rank", "nranks", "workload") if k not in fields
        ]
        if missing:
            raise proto.ProtocolError(f"HELLO lacks {', '.join(missing)}")
        rank, nranks = fields["rank"], fields["nranks"]
        if type(rank) is not int or type(nranks) is not int:
            raise proto.ProtocolError(
                f"HELLO rank {rank!r} and nranks {nranks!r} must be integers"
            )
        if nranks < 1 or not 0 <= rank < nranks:
            raise proto.ProtocolError(
                f"HELLO rank {rank} outside [0, {nranks})"
            )
        try:
            jobid = check_job_id(fields["job"])
            workload = fields["workload"]
            # Only a rank count the workload runs on: the fold domain
            # and the reaper's placeholders are built per rank.
            get_workload(workload).check_procs(nranks)
            scale = float(fields.get("scale", 1.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise proto.ProtocolError(f"HELLO refused: {exc.args[0]}")
        return jobid, rank, nranks, workload, scale

    def _on_hello(self, fields: dict, writer: asyncio.StreamWriter
                  ) -> tuple[SessionState, JobState]:
        jobid, rank, nranks, workload, scale = self._hello_identity(fields)
        jobstate = self.jobs.get(jobid)
        if jobstate is not None and jobstate.finalized:
            writer.write(proto.control_frame(
                proto.ERROR, code="finalized",
                error=f"job {jobid!r} already finalized",
            ))
            raise ConnectionError("late HELLO on finalized job")
        if jobstate is not None and \
                (jobstate.nranks, jobstate.workload) != (nranks, workload):
            raise proto.ProtocolError(
                f"job {jobid!r} is {jobstate.workload} on "
                f"{jobstate.nranks} ranks, not {workload} on {nranks}"
            )
        session = None if jobstate is None else jobstate.sessions.get(rank)
        if session is None:
            session = self.store.create(jobid, rank, nranks, workload, scale)
            jobstate = self._job_for(session)
            jobstate.sessions[rank] = session
        session.touch()
        revived = False
        if session.quarantined is not None and \
                session.quarantined.stage == "server":
            session.quarantined = None
            self.store.record_state(session)
            revived = True
            self._count("server.revivals")
        writer.write(proto.control_frame(
            proto.HELLO_ACK,
            proto_version=proto.PROTO_VERSION,
            acked_seq=session.acked_seq,
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
            self.store.record_state(session)
            self._count("server.revivals")
        items = None
        if seq > session.acked_seq:
            items = self._validate_blob(blob)
        try:
            fresh = self.store.accept(session, seq, blob)
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
        else:
            self._count("server.dup_batches")
        writer.write(proto.control_frame(
            proto.BATCH_ACK, seq=seq, acked_seq=session.acked_seq,
            dup=not fresh,
        ))

    def _on_eos(self, job: JobState, session: SessionState,
                fields: dict, writer: asyncio.StreamWriter) -> None:
        total = fields.get("total")
        if type(total) is not int:
            raise proto.ProtocolError(
                f"EOS total {total!r} must be an integer"
            )
        if total < session.acked_seq:
            writer.write(proto.control_frame(
                proto.ERROR,
                error=f"EOS total {total} below acked {session.acked_seq}",
            ))
            return
        session.eos_seq = total
        self.store.record_state(session)
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

    async def serve(self, *, on_started=None) -> None:
        """Run until drained (SIGTERM / :meth:`request_drain`).  Off the
        main thread the loop cannot take signals, so only
        :meth:`request_drain` ends it."""
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
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
