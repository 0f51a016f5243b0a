"""Per-``(job, rank)`` session state and its crash-safe persistence.

A session's durable footprint is two small files in the server's state
directory, both built from the same CRC32-framed section container the
trace format uses (:mod:`repro.core.serialize`):

* ``{job}__r{rank}.log`` — the **batch log**: an append-only sequence
  of framed BATCH sections (``seq u64 | CYPK blob``).  Appends are
  fsynced; a crash mid-append tears at most the last section, and
  recovery keeps the longest checksum-valid prefix (the same salvage
  scan the trace container uses).  The log is the source of truth: a
  batch is *durable* exactly when its section survives the prefix scan.
* ``{job}__r{rank}.meta.a`` / ``.b`` — the **meta checkpoint**,
  written whole (:func:`~repro.core.serialize.atomic_write`) into
  alternating slots with a monotonically increasing generation counter.  Recovery
  reads both slots and keeps the newest one that validates — a torn or
  corrupt checkpoint silently loses one generation, never the session.

The in-memory :class:`SessionState` buffers acked-but-not-yet-durable
batches; :meth:`SessionStore.checkpoint` appends them to the log,
advances the meta generation, and releases the memory — which is what
lets the daemon's backpressure spill a firehose session to disk and
keep its buffered-bytes gauge under the watermark.
"""

from __future__ import annotations

import json
import os
import re
import struct
import time
from dataclasses import dataclass, field

from repro.core.errors import TraceFormatError
from repro.core.quarantine import QuarantinedRank
from repro.core.serialize import (
    ByteWriter,
    atomic_write,
    read_sections,
    write_section,
)

_LOG_MAGIC = b"CYSL"
_META_MAGIC = b"CYSM"
_VERSION = 1

#: Section kinds inside the session files.
SEC_END = 0
SEC_META = 1
SEC_BATCH = 2

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
    #: Highest batch sequence number durable in the batch log.
    durable_seq: int = 0
    #: Acked batches not yet appended to the log, in seq order.
    mem_batches: list[tuple[int, bytes]] = field(default_factory=list)
    #: Bytes held by ``mem_batches`` — the session's share of the
    #: server's buffered-bytes gauge.
    buffered_bytes: int = 0
    #: EOS received: the total batch count the client declared, or None.
    eos_seq: int | None = None
    #: Set when the idle reaper quarantined this rank (lenient path).
    quarantined: QuarantinedRank | None = None
    generation: int = 0
    last_activity: float = field(default_factory=time.monotonic)

    @property
    def finalized(self) -> bool:
        """The client sent EOS and every declared batch was ingested."""
        return self.eos_seq is not None and self.acked_seq >= self.eos_seq

    @property
    def dirty(self) -> bool:
        """Anything acked (batches or EOS/quarantine state) not yet on
        disk — the checkpoint loop's work predicate."""
        return bool(self.mem_batches) or self.acked_seq > self.durable_seq \
            or self.generation == 0 or self._meta_dirty

    _meta_dirty: bool = False

    def touch(self) -> None:
        self.last_activity = time.monotonic()

    def mark_meta_dirty(self) -> None:
        self._meta_dirty = True

    def accept(self, seq: int, blob: bytes) -> bool:
        """Ack one batch; returns False for a duplicate (seq already
        acked — the exactly-once dedup), raises on a gap."""
        if seq <= self.acked_seq:
            return False
        if seq != self.acked_seq + 1:
            raise ValueError(
                f"out-of-order batch {seq} (expected {self.acked_seq + 1})"
            )
        self.mem_batches.append((seq, blob))
        self.buffered_bytes += len(blob)
        self.acked_seq = seq
        self.touch()
        return True

    def meta_dict(self) -> dict:
        return {
            "job": self.job,
            "rank": self.rank,
            "nranks": self.nranks,
            "workload": self.workload,
            "scale": self.scale,
            "acked_seq": self.acked_seq,
            "eos_seq": self.eos_seq,
            "generation": self.generation,
            "quarantined": (
                self.quarantined.to_dict() if self.quarantined else None
            ),
        }


@dataclass
class RecoveredSession:
    """What :meth:`SessionStore.load_all` salvages for one session."""

    job: str
    rank: int
    meta: dict
    #: Durable batches, contiguous from seq 1, in order.
    batches: list[tuple[int, bytes]]

    def to_state(self) -> SessionState:
        durable = self.batches[-1][0] if self.batches else 0
        qd = self.meta.get("quarantined")
        quarantined = QuarantinedRank.from_dict(qd) if qd else None
        eos_seq = self.meta.get("eos_seq")
        if eos_seq is not None and durable < eos_seq:
            # The EOS outlived its tail batches (meta checkpointed, log
            # tail torn): the client must re-send from ``durable``, so
            # the EOS mark is forgotten along with the lost batches.
            eos_seq = None
        return SessionState(
            job=self.job,
            rank=self.rank,
            nranks=self.meta["nranks"],
            workload=self.meta.get("workload", ""),
            scale=self.meta.get("scale", 1.0),
            acked_seq=durable,
            durable_seq=durable,
            eos_seq=eos_seq,
            quarantined=quarantined,
            generation=self.meta.get("generation", 0),
        )


# ---------------------------------------------------------------------------


class SessionStore:
    """Durable home of every session's batch log + meta checkpoint."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)

    # -- paths -----------------------------------------------------------

    def _base(self, job: str, rank: int) -> str:
        return os.path.join(self.state_dir, f"{job}__r{rank}")

    def log_path(self, job: str, rank: int) -> str:
        return self._base(job, rank) + ".log"

    def meta_paths(self, job: str, rank: int) -> tuple[str, str]:
        base = self._base(job, rank)
        return base + ".meta.a", base + ".meta.b"

    # -- write side ------------------------------------------------------

    def append_batches(
        self, job: str, rank: int, batches: list[tuple[int, bytes]]
    ) -> None:
        """Append framed batch sections to the log and fsync.  A crash
        mid-call tears at most the final section (prefix salvage)."""
        if not batches:
            return
        w = ByteWriter()
        for seq, blob in batches:
            write_section(w, SEC_BATCH, _SEQ.pack(seq) + blob)
        path = self.log_path(job, rank)
        new = not os.path.exists(path)
        with open(path, "ab") as fh:
            if new:
                fh.write(_LOG_MAGIC + bytes([_VERSION]))
            fh.write(w.bytes())
            fh.flush()
            os.fsync(fh.fileno())

    def write_meta(self, session: SessionState) -> None:
        """Atomically persist the session meta into the older of the two
        alternating slots, bumping the generation counter."""
        session.generation += 1
        slot_a, slot_b = self.meta_paths(session.job, session.rank)
        target = slot_a if session.generation % 2 else slot_b
        w = ByteWriter()
        w.raw(_META_MAGIC + bytes([_VERSION]))
        payload = json.dumps(session.meta_dict(), sort_keys=True).encode()
        write_section(w, SEC_META, payload)
        ew = ByteWriter()
        ew.u(1)
        write_section(w, SEC_END, ew.bytes())
        atomic_write(target, w.bytes())
        session._meta_dirty = False

    def checkpoint(self, session: SessionState) -> int:
        """Make everything acked durable and release the batch memory;
        returns the bytes spilled to the log."""
        spilled = session.buffered_bytes
        self.append_batches(session.job, session.rank, session.mem_batches)
        session.durable_seq = session.acked_seq
        session.mem_batches.clear()
        session.buffered_bytes = 0
        self.write_meta(session)
        return spilled

    def remove(self, job: str, rank: int) -> None:
        for path in (self.log_path(job, rank), *self.meta_paths(job, rank)):
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- read side -------------------------------------------------------

    def read_log_batches(self, job: str, rank: int) -> list[tuple[int, bytes]]:
        """The durable batches: longest checksum-valid prefix of the
        log, kept only while sequence numbers stay contiguous from 1."""
        path = self.log_path(job, rank)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return []
        if data[:4] != _LOG_MAGIC:
            return []
        sections, _complete, _error = read_sections(data, 5, salvage=True)
        batches: list[tuple[int, bytes]] = []
        expect = 1
        for kind, payload in sections:
            if kind != SEC_BATCH or len(payload) < _SEQ.size:
                break
            seq = _SEQ.unpack_from(payload)[0]
            if seq != expect:
                break
            batches.append((seq, payload[_SEQ.size:]))
            expect += 1
        return batches

    def _read_meta(self, path: str) -> dict | None:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        if data[:4] != _META_MAGIC or len(data) < 5:
            return None
        try:
            sections, complete, _error = read_sections(data, 5, salvage=False)
        except TraceFormatError:
            return None
        if not complete or not sections or sections[0][0] != SEC_META:
            return None
        try:
            meta = json.loads(sections[0][1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return meta if isinstance(meta, dict) else None

    def read_meta(self, job: str, rank: int) -> dict | None:
        """The newest valid meta checkpoint of the two slots."""
        candidates = [
            m for m in map(self._read_meta, self.meta_paths(job, rank))
            if m is not None
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda m: m.get("generation", 0))

    def discover(self) -> list[tuple[str, int]]:
        """Every ``(job, rank)`` with any file in the state dir."""
        seen: set[tuple[str, int]] = set()
        pat = re.compile(r"^(.+)__r(\d+)\.(log|meta\.[ab])$")
        try:
            names = os.listdir(self.state_dir)
        except OSError:
            return []
        for name in names:
            m = pat.match(name)
            if m:
                seen.add((m.group(1), int(m.group(2))))
        return sorted(seen)

    def load_all(self) -> list[RecoveredSession]:
        """Salvage every session: newest valid meta + durable batch
        prefix.  A session with a log but no readable meta is dropped
        (nranks unknown — the client will re-HELLO and restart it)."""
        out: list[RecoveredSession] = []
        for job, rank in self.discover():
            meta = self.read_meta(job, rank)
            if meta is None:
                continue
            out.append(RecoveredSession(
                job=job, rank=rank, meta=meta,
                batches=self.read_log_batches(job, rank),
            ))
        return out
