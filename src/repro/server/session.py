"""Per-``(job, rank)`` session state and its crash-safe persistence.

A session's whole durable footprint is one file in the server's state
directory, ``{job}__r{rank}.log``: an append-only sequence of the
CRC32-framed sections the trace format uses
(:mod:`repro.core.serialize`), of three kinds:

* **identity** (first, once): ``nranks``, ``workload`` and ``scale`` as
  JSON.  :meth:`SessionStore.create` writes it with ``O_TRUNC`` when the
  daemon creates the session, so a stale log is started afresh.
* **batch**: ``seq u64 | CYPK blob``.  :meth:`SessionStore.accept`
  appends each fresh batch the moment it is accepted — one
  ``open``/``write``/``close``, no fsync — so the daemon holds no batch
  in memory, and a crashed *process* loses nothing it acked (the bytes
  are in the page cache).
* **state**: ``eos_seq`` and the idle reaper's stage-``"server"``
  quarantine (or ``null``) as JSON, appended when an EOS arrives and
  when a rank is idle-quarantined or revived; the last one wins.  An
  EOS record sits behind the batches it covers, so it cannot outlive
  them.  A stage-``"intra"`` quarantine is not stored: re-ingesting the
  same batches raises it again.

A checkpoint fsyncs the log if anything was appended since the last
fsync.  A crash mid-append tears at most the last section; recovery
keeps the longest checksum-valid, seq-contiguous prefix behind a valid
identity and cuts the torn bytes off, so later appends are not hidden
behind them.
"""

from __future__ import annotations

import json
import os
import re
import struct
import time
from dataclasses import dataclass, field

from repro.core.quarantine import QuarantinedRank
from repro.core.serialize import ByteWriter, read_sections, write_section

_HEADER = b"CYSL" + bytes([2])  # magic + version

#: Section kinds inside a session log.
SEC_IDENTITY = 1
SEC_BATCH = 2
SEC_STATE = 3

_SEQ = struct.Struct("<Q")

_JOB_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,127}$")


def check_job_id(job: str) -> str:
    """Validate a job id (it becomes part of file names)."""
    if not isinstance(job, str) or not _JOB_RE.match(job):
        raise ValueError(
            f"bad job id {job!r}: want [A-Za-z0-9][A-Za-z0-9_.-]*, <=128 chars"
        )
    return job


@dataclass
class SessionState:
    """One live ``(job, rank)`` ingest session."""

    job: str
    rank: int
    nranks: int
    #: Registered workload name + scale — the job's identity; recovery
    #: rebuilds the CST (and thus the compressor) from these.
    workload: str = ""
    scale: float = 1.0
    #: Highest contiguous batch sequence number ingested (acked to the
    #: client).  Starts at 0; batch ``seq`` must equal ``acked_seq + 1``.
    acked_seq: int = 0
    #: EOS received: the total batch count the client declared, or None.
    eos_seq: int | None = None
    #: Set when the rank is quarantined: by the idle reaper (stage
    #: 'server', revived if the rank comes back) or by a batch that
    #: mismatches the CST (stage 'intra', permanent).
    quarantined: QuarantinedRank | None = None
    #: Appended to the log since its last fsync — the checkpoint's work
    #: predicate.
    dirty: bool = False
    last_activity: float = field(default_factory=time.monotonic)

    @property
    def finalized(self) -> bool:
        """The client sent EOS and every declared batch was ingested."""
        return self.eos_seq is not None and self.acked_seq >= self.eos_seq

    def touch(self) -> None:
        self.last_activity = time.monotonic()

    def accept(self, seq: int) -> bool:
        """Ack one batch; returns False for a duplicate (seq already
        acked — the exactly-once dedup), raises on a gap."""
        if seq <= self.acked_seq:
            return False
        if seq != self.acked_seq + 1:
            raise ValueError(
                f"out-of-order batch {seq} (expected {self.acked_seq + 1})"
            )
        self.acked_seq = seq
        self.touch()
        return True


@dataclass
class RecoveredSession:
    """What :meth:`SessionStore.load_all` salvages for one session: its
    state as the log's valid prefix leaves it, and that prefix's
    batches (contiguous from seq 1, in order)."""

    session: SessionState
    batches: list[tuple[int, bytes]]

    job = property(lambda self: self.session.job)
    rank = property(lambda self: self.session.rank)


# ---------------------------------------------------------------------------


class SessionStore:
    """Durable home of every session's log."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)

    def log_path(self, job: str, rank: int) -> str:
        return os.path.join(self.state_dir, f"{job}__r{rank}.log")

    # -- write side ------------------------------------------------------

    def _write(self, session: SessionState, data: bytes, flags: int) -> None:
        path = self.log_path(session.job, session.rank)
        fd = os.open(path, flags, 0o644)
        try:
            if os.write(fd, data) != len(data):
                raise OSError(f"short append to the log of "
                              f"{session.job} rank {session.rank}")
        finally:
            os.close(fd)
        session.dirty = True

    def _append(self, session: SessionState, kind: int,
                payload: bytes) -> None:
        w = ByteWriter()
        write_section(w, kind, payload)
        self._write(session, w.bytes(), os.O_WRONLY | os.O_APPEND)

    def create(self, job: str, rank: int, nranks: int, workload: str,
               scale: float) -> SessionState:
        """A new session, its log started afresh with the identity."""
        session = SessionState(job=job, rank=rank, nranks=nranks,
                               workload=workload, scale=scale)
        identity = {"nranks": nranks, "workload": workload, "scale": scale}
        w = ByteWriter()
        w.raw(_HEADER)
        write_section(w, SEC_IDENTITY, json.dumps(identity).encode())
        self._write(session, w.bytes(),
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        return session

    def accept(self, session: SessionState, seq: int, blob: bytes) -> bool:
        """:meth:`SessionState.accept` with the log append in front: the
        next batch reaches the log before the session counts it acked."""
        if seq == session.acked_seq + 1:
            self._append(session, SEC_BATCH, _SEQ.pack(seq) + blob)
        return session.accept(seq)

    def record_state(self, session: SessionState) -> None:
        """Append the session's EOS and idle-quarantine state."""
        q = session.quarantined
        state = {
            "eos_seq": session.eos_seq,
            "quarantined": (
                q.to_dict() if q is not None and q.stage == "server"
                else None
            ),
        }
        self._append(session, SEC_STATE, json.dumps(state).encode())

    def checkpoint(self, session: SessionState) -> None:
        """Fsync the log if anything was appended since the last fsync."""
        if session.dirty:
            fd = os.open(self.log_path(session.job, session.rank),
                         os.O_WRONLY | os.O_APPEND)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            session.dirty = False

    # -- read side -------------------------------------------------------

    def read_log_batches(self, job: str, rank: int) -> list[tuple[int, bytes]]:
        """The durable batches: the longest checksum-valid prefix of the
        log behind its identity, while sequence numbers stay contiguous
        from 1."""
        return self._scan_log(job, rank)[1]

    def _scan_log(self, job: str, rank: int) -> tuple[
            SessionState | None, list[tuple[int, bytes]], int, int]:
        """``(session, batches, prefix_end, file_size)``: the session the
        valid prefix describes (None without a valid identity), its
        batches, and the byte offset just past that prefix."""
        try:
            with open(self.log_path(job, rank), "rb") as fh:
                data = fh.read()
        except OSError:
            return None, [], 0, 0
        if data[:len(_HEADER)] != _HEADER:
            return None, [], 0, 0
        sections, _complete, _error = read_sections(
            data, len(_HEADER), salvage=True
        )
        session: SessionState | None = None
        batches: list[tuple[int, bytes]] = []
        kept = ByteWriter()  # re-framed, it measures the prefix
        for kind, payload in sections:
            try:
                if session is None:
                    if kind != SEC_IDENTITY:
                        break
                    ident = json.loads(payload)
                    session = SessionState(
                        job=job, rank=rank, nranks=int(ident["nranks"]),
                        workload=str(ident["workload"]),
                        scale=float(ident["scale"]),
                    )
                elif kind == SEC_BATCH:
                    seq = _SEQ.unpack_from(payload)[0]
                    if seq != session.acked_seq + 1:
                        break
                    session.acked_seq = seq
                    batches.append((seq, payload[_SEQ.size:]))
                elif kind == SEC_STATE:
                    state = json.loads(payload)
                    q = state["quarantined"]
                    session.eos_seq = state["eos_seq"]
                    session.quarantined = (
                        QuarantinedRank.from_dict(q) if q else None
                    )
                else:
                    break
            except (ValueError, KeyError, TypeError, struct.error):
                break
            write_section(kept, kind, payload)
        return session, batches, len(_HEADER) + kept.size(), len(data)

    def discover(self) -> list[tuple[str, int]]:
        """Every ``(job, rank)`` with a log in the state dir."""
        pat = re.compile(r"^(.+)__r(\d+)\.log$")
        try:
            names = os.listdir(self.state_dir)
        except OSError:
            return []
        return sorted(
            (m.group(1), int(m.group(2)))
            for m in map(pat.match, names) if m
        )

    def load_all(self) -> list[RecoveredSession]:
        """Salvage every session whose log opens with a valid identity,
        and cut each such log back to its valid prefix so the batches
        the client re-sends land right behind it.  A log without one is
        skipped: the client's HELLO restarts that session from batch 1."""
        out: list[RecoveredSession] = []
        for job, rank in self.discover():
            session, batches, end, size = self._scan_log(job, rank)
            if session is None:
                continue
            if size > end:
                os.truncate(self.log_path(job, rank), end)
            out.append(RecoveredSession(session=session, batches=batches))
        return out
