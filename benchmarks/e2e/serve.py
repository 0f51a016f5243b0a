"""``serve_mixed``: two jobs streamed concurrently into a ``repro serve``
daemon running as a separate process, then a seeded kill and recovery.

The load is a closed loop: ``CONNECTIONS`` sender threads in this one
process each take the next ``(job, rank)`` stream, in the seed's order,
and keep at most ``WINDOW`` batches unacknowledged — the window
:class:`repro.server.client.TraceClient` uses.  The sender here is the
benchmark's own, built on :mod:`repro.server.protocol`, because it has to
stamp every batch from its send to the ``BATCH_ACK`` that covers it and
count acknowledgements per sequence number.

The kill pass runs once, before the timed rounds: a daemon started with
``--kill-after-batches`` dies about three quarters of the way through,
its state directory is copied, a fresh daemon recovers it and the senders
resume.  The copy is what the timed ``CypressTraceServer.recover()`` calls
replay (recovery only reads the state directory).
"""

from __future__ import annotations

import json
import os
import queue
import random
import shutil
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field, replace

from repro.core import packed, serialize
from repro.driver import run_compiled
from repro.mpisim.pmpi import NullSink, StreamCaptureSink
from repro.server import protocol as proto
from repro.server.client import split_batches
from repro.server.daemon import CypressTraceServer, ServerConfig
from repro.server.faultsmoke import DaemonProc
from repro.server.session import SessionStore

from . import pipeline
from .harness import (
    Ops, Outcome, Samples, Timer, drive, percentile, rounds, timed_series,
)
from .spans import Recorder
from .workloads import Spec

CONNECTIONS = 2
WINDOW = 32
BATCH_ITEMS = 512
#: ``ServerConfig``'s default, spelled out because ``DaemonProc`` (the
#: fault-smoke harness this reuses) defaults to a shorter one.
CHECKPOINT_INTERVAL = 0.25
#: Submissions of both jobs per timed daemon: the spawn costs several
#: times the serve path, so each spawn buys this many samples of it.
GENERATIONS = 3
KILLED_EXIT = 137


@dataclass
class Stream:
    """One ``(job, rank)`` session's batches."""

    job: str
    workload: str
    scale: float
    nranks: int
    rank: int
    blobs: list[bytes]


@dataclass
class SendLog:
    """What the senders of one pass over the streams observed."""

    ack_ms: list[float] = field(default_factory=list)
    #: (job, rank, seq) -> BATCH_ACK frames seen for it / flagged ``dup``
    acks: dict[tuple, int] = field(default_factory=dict)
    dups: int = 0
    #: (job, rank) -> highest sequence number acknowledged to the client
    acked: dict[tuple, int] = field(default_factory=dict)
    wire_bytes: int = 0
    throttles: int = 0
    lost: int = 0  # sessions whose established connection died
    regressions: int = 0  # HELLO_ACK below what the client had seen acked
    errors: list[str] = field(default_factory=list)


def _hello(sock: socket.socket, s: Stream, log: SendLog) -> int | None:
    """Open the session; returns the server's acked sequence number, or
    None when the job already finalized (everything this rank sent is in
    the output)."""
    key = (s.job, s.rank)
    sock.sendall(proto.control_frame(
        proto.HELLO, job=s.job, rank=s.rank, nranks=s.nranks,
        workload=s.workload, scale=s.scale,
    ))
    kind, payload = proto.read_frame(sock)
    fields = proto.decode_control(payload)
    if kind == proto.ERROR and fields.get("code") == "finalized":
        return None
    if kind != proto.HELLO_ACK:
        raise proto.ProtocolError(f"HELLO answered with {kind}: {fields}")
    acked = int(fields["acked_seq"])
    if acked < log.acked.get(key, 0):
        log.regressions += 1
    log.acked[key] = acked
    return acked


def _send_from(sock: socket.socket, s: Stream, acked: int,
               log: SendLog) -> None:
    """Send the batches past ``acked``, window-limited, then EOS."""
    key = (s.job, s.rank)
    sent_at: dict[int, float] = {}
    next_seq, total, throttled = acked + 1, len(s.blobs), False
    while acked < total:
        while (not throttled and next_seq <= total
               and next_seq - acked <= WINDOW):
            frame = proto.batch_frame(next_seq, s.blobs[next_seq - 1])
            sent_at[next_seq] = time.perf_counter()
            sock.sendall(frame)
            log.wire_bytes += len(frame)
            next_seq += 1
        kind, payload = proto.read_frame(sock)
        if kind == proto.BATCH_ACK:
            now = time.perf_counter()
            fields = proto.decode_control(payload)
            ack_key = (*key, int(fields["seq"]))
            log.acks[ack_key] = log.acks.get(ack_key, 0) + 1
            log.dups += bool(fields.get("dup"))
            covered = int(fields["acked_seq"])
            for seq in range(acked + 1, covered + 1):
                log.ack_ms.append((now - sent_at.pop(seq)) * 1e3)
            acked = max(acked, covered)
            log.acked[key] = acked
        elif kind == proto.THROTTLE:
            throttled = True
            log.throttles += 1
        elif kind == proto.RESUME:
            throttled = False
        elif kind == proto.ERROR:
            raise proto.ProtocolError(
                f"server error: {proto.decode_control(payload)}"
            )
    sock.sendall(proto.control_frame(proto.EOS, total=total))
    while True:
        kind, payload = proto.read_frame(sock)
        if kind == proto.EOS_ACK:
            return
        if kind == proto.ERROR:
            raise proto.ProtocolError(
                f"server error: {proto.decode_control(payload)}"
            )


def _stream_rank(port: int, s: Stream, log: SendLog) -> None:
    """One session over one connection.  A daemon that dies under an open
    session (the kill pass) costs that session its connection; one that is
    already gone refuses the connection and there is nothing to lose."""
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    except OSError:
        return
    with sock:
        try:
            acked = _hello(sock, s, log)
            if acked is not None:
                _send_from(sock, s, acked, log)
        except (ConnectionError, OSError):
            log.lost += 1
        except proto.ProtocolError as exc:
            log.errors.append(f"{s.job} rank {s.rank}: {exc}")


def send_all(port: int, streams: list[Stream], log: SendLog) -> None:
    """Drain ``streams`` through ``CONNECTIONS`` closed-loop senders.
    Returns when every stream was sent or lost its connection."""
    todo: queue.SimpleQueue = queue.SimpleQueue()
    for stream in streams:
        todo.put(stream)

    def worker() -> None:
        while True:
            try:
                stream = todo.get_nowait()
            except queue.Empty:
                return
            _stream_rank(port, stream, log)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


class ServeRun:
    def __init__(self, spec: Spec, seed: int, recorder: Recorder,
                 tmp: str, import_s: float) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.samples = Samples()
        self.timer = Timer(recorder, self.samples)
        self.ops = Ops()
        self.tmp = tmp
        self.import_s = import_s  # wall seconds until drive() calibrates it
        self.cycles = 0
        self.job_ids = [
            f"{job.workload}-p{job.nprocs}" for job in spec.jobs
        ]

    # -- set-up -----------------------------------------------------------

    def set_up(self, repetitions: int) -> None:
        for _ in range(repetitions):
            self.inputs = [
                pipeline.capture_inputs(job, self.timer)
                for job in self.spec.jobs
            ]
            self.streams = self.timer.call("server.split_batches", self._split)
        self.events = sum(inp.events for inp in self.inputs)
        self.batches = sum(len(s.blobs) for s in self.streams)
        self.rng.shuffle(self.streams)  # the seed's submission order
        self.kill_at = max(1, int(self.batches * self.rng.uniform(0.70, 0.80)))

    def _split(self) -> list[Stream]:
        return [
            Stream(
                job=job_id, workload=inp.job.workload, scale=inp.job.scale,
                nranks=inp.job.nprocs, rank=rank,
                blobs=split_batches(inp.streams[rank], BATCH_ITEMS),
            )
            for job_id, inp in zip(self.job_ids, self.inputs)
            for rank in sorted(inp.streams)
        ]

    # -- daemon cycles ----------------------------------------------------

    def _dirs(self) -> tuple[str, str]:
        """A fresh state and output directory for one daemon."""
        self.cycles += 1
        base = os.path.join(self.tmp, f"cycle{self.cycles}")
        return os.path.join(base, "state"), os.path.join(base, "out")

    def _spawn(self, state: str, out: str, **kwargs) -> tuple[DaemonProc, int]:
        """Start a daemon subprocess; timed from exec to the first
        connection it accepts."""
        os.makedirs(state, exist_ok=True)
        t0 = time.perf_counter()
        proc = DaemonProc(
            state, out, checkpoint_interval=CHECKPOINT_INTERVAL, **kwargs
        )
        try:
            with self.timer.recorder.span("server.spawn"):
                port = proc.start()
                socket.create_connection(("127.0.0.1", port), timeout=30).close()
        except BaseException:
            proc.kill()
            raise
        self.samples.add(
            "server.spawn",
            (time.perf_counter() - t0) * self.timer.calibrate(),
        )
        return proc, port

    def _wait_containers(self, out: str, jobs: list[str],
                         timeout: float = 60.0) -> None:
        """Block until every job's container is on disk (``serialize.save``
        renames it into place, so present means complete)."""
        deadline = time.monotonic() + timeout
        paths = [os.path.join(out, f"{job}.cyp") for job in jobs]
        while not all(os.path.exists(p) for p in paths):
            if time.monotonic() > deadline:
                raise TimeoutError(f"containers never appeared in {out}")
            time.sleep(0.001)

    def _serve_path(self, port: int, out: str, streams: list[Stream],
                    jobs: list[str], log: SendLog) -> None:
        """First HELLO to both containers on disk."""
        self.timer.call("server.submit", send_all, port, streams, log)
        self.timer.call("server.finalize", self._wait_containers, out, jobs)

    def serve_cycle(self, gate: bool, name: str = "path.serve") -> str:
        """One healthy daemon: spawn, submit both jobs — ``GENERATIONS``
        times over under fresh job ids, once in the gate — wait for the
        containers each time, drain.  Returns the output directory."""
        state, out = self._dirs()
        metrics_json = os.path.join(os.path.dirname(state), "metrics.json")
        proc, port = self._spawn(state, out, metrics_json=metrics_json)
        try:
            for generation in range(1 if gate else GENERATIONS):
                suffix = f"-g{generation}"
                streams = [replace(s, job=s.job + suffix) for s in self.streams]
                jobs = [job + suffix for job in self.job_ids]
                log = SendLog()
                self.timer.call(name, self._serve_path,
                                port, out, streams, jobs, log)
                self._verify(log, out, streams, jobs, gate)
            self.samples.add("server.peak_rss_mb", _peak_rss_mb(proc.proc.pid))
            proc.terminate()
        finally:
            proc.kill()
        self.last_counters = json.loads(_read(metrics_json))
        self.last_log = log
        if not gate:
            shutil.rmtree(out)  # only the gate's containers are read later
        shutil.rmtree(state)
        return out

    def _verify(self, log: SendLog, out: str, streams: list[Stream],
                jobs: list[str], gate: bool) -> None:
        """Every batch acknowledged exactly once, nothing lost, and the
        containers byte-identical to the inline path's."""
        scale = self.timer.scale  # set when this submission's timing began
        self.samples.add("cycle.ack_ms_p50",
                         statistics.median(log.ack_ms) * scale)
        self.samples.add("cycle.ack_ms_p95",
                         percentile(log.ack_ms, 95) * scale)
        self.samples.add("cycle.ack_ms_max", max(log.ack_ms) * scale)
        keys = [
            (s.job, s.rank, seq)
            for s in streams for seq in range(1, len(s.blobs) + 1)
        ]
        healthy = not (log.lost or log.regressions or log.errors)
        identical = all(
            _read(os.path.join(out, f"{job}.cyp")) == blob
            for job, blob in zip(jobs, self.blobs)
        )
        if gate:
            for key in keys:
                self.ops.check(
                    log.acks.get(key) == 1, f"batch {key} acked exactly once"
                )
            self.ops.check(log.dups == 0, "no duplicate acks")
            self.ops.check(healthy, f"no reconnects or errors: {log.errors}")
            self.ops.check(identical, "server bytes == inline bytes")
        else:
            once = all(log.acks.get(key) == 1 for key in keys)
            self.ops.expect(
                once and log.dups == 0 and healthy and identical,
                f"serve cycle {self.cycles} matches the gate's",
            )

    def kill_pass(self) -> None:
        """Kill a daemon mid-stream, recover it in-process (checked, and
        timed later on a copy), then let a fresh daemon and the senders
        finish the jobs."""
        ops = self.ops
        state, out = self._dirs()
        proc, port = self._spawn(state, out, kill_after_batches=self.kill_at)
        log = SendLog()
        try:
            send_all(port, self.streams, log)
            ops.check(
                proc.wait_exit() == KILLED_EXIT,
                f"daemon died at batch {self.kill_at}",
            )
        finally:
            proc.kill()
        self.killed_state = os.path.join(self.tmp, "killed-state")
        shutil.copytree(state, self.killed_state)
        durable = SessionStore(self.killed_state).load_all()
        self.durable_batches = sum(len(rec.batches) for rec in durable)
        self.durable_events = sum(
            packed.event_count(blob) for rec in durable
            for _seq, blob in rec.batches
        )
        ops.check(self.recover() == len(durable),
                  "recover() rebuilt every durable session")
        proc, port = self._spawn(state, out)
        try:
            send_all(port, self.streams, log)
            self._wait_containers(out, self.job_ids)
            proc.terminate()
        finally:
            proc.kill()
        self.reconnects = log.lost
        ops.check(not log.errors, f"resume without errors: {log.errors}")
        for job, blob in zip(self.job_ids, self.blobs):
            ops.check(
                _read(os.path.join(out, f"{job}.cyp")) == blob,
                f"{job}: recovered bytes == inline bytes",
            )

    def recover(self) -> int:
        config = ServerConfig(
            state_dir=self.killed_state,
            out_dir=os.path.join(self.tmp, "recover-out"),
        )
        return CypressTraceServer(config).recover()

    # -- gate and rounds --------------------------------------------------

    def gate(self) -> None:
        for inp in self.inputs:
            pipeline.record_truth(inp)
        self.blobs = [pipeline.inline_container(inp) for inp in self.inputs]
        self.gzip_bytes = sum(
            len(serialize.dumps(serialize.loads(blob), gzip=True))
            for blob in self.blobs
        )
        out = self.serve_cycle(gate=True)
        self.paths = [
            os.path.join(out, f"{job}-g0.cyp") for job in self.job_ids
        ]
        self.qargs = [
            pipeline.pick_query_args(
                self.rng, serialize.loads(blob), inp.job.nprocs
            )
            for blob, inp in zip(self.blobs, self.inputs)
        ]
        for path, inp, args, job in zip(
            self.paths, self.inputs, self.qargs, self.job_ids
        ):
            pipeline.check_container(self.ops, path, inp, args, job)
        self.kill_pass()
        self.samples.keep("setup.", "server.split_batches", "server.spawn")

    def _programs(self, name: str, make_sink) -> None:
        def run_both() -> None:
            for inp in self.inputs:
                run_compiled(inp.compiled, inp.job.nprocs,
                             defines=inp.defines, tracer=make_sink())
        self.timer.call(name, run_both)

    def measure(self, seconds: float, minimum: int, traced: bool) -> None:
        timer = self.timer
        for _ in rounds(seconds, minimum):
            self._programs("mpisim.null_run", NullSink)
            self._programs("mpisim.capture_run", StreamCaptureSink)
            self.serve_cycle(gate=False)
            if traced:
                # Tracing overhead: the same cycle with the recorder off.
                with timer.recorder.paused():
                    self.serve_cycle(gate=False, name="bench.untraced_serve")
            taken = timer.repeat("path.open_query", 6, 0.25,
                                 pipeline.open_query_path,
                                 timer, self.paths, self.qargs)
            self.samples.add("round.open_query_p50",
                             statistics.median(s for s, _ in taken))
            timer.call("path.replay", pipeline.replay_path, timer, self.paths)
            if traced:
                timer.call("path.recover", timer.call, "server.recover",
                           self.recover)

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        s = self.samples
        spawn = statistics.median(s.get("server.spawn"))
        series = {
            "trace_wall_s": s.get("path.serve"),
            "trace_overhead_ratio": [
                cap / null for cap, null in zip(
                    self.timer.wall.get("mpisim.capture_run"),
                    self.timer.wall.get("mpisim.null_run"),
                )
            ],
            "compress_events_per_s": [
                self.events / x for x in s.get("path.serve")
            ],
            "open_query_ms_p50": [
                x * 1e3 for x in s.get("round.open_query_p50")
            ],
            "replay_events_per_s": [
                self.events / x for x in s.get("path.replay")
            ],
            "peak_rss_mb": s.get("server.peak_rss_mb"),
            "setup_s": [
                self.import_s + spawn + sum(parts) for parts in zip(
                    *(_per_rep(s.get(name), len(self.inputs)) for name in
                      ("setup.compile", "setup.capture")),
                    s.get("server.split_batches"),
                )
            ],
        }
        values = {
            "container_bytes": sum(len(b) for b in self.blobs),
            "container_gzip_bytes": self.gzip_bytes,
        }
        return values, series

    def per_layer(self, names: list[str]) -> tuple[dict, dict]:
        s, log, counters = self.samples, self.last_log, self.last_counters
        series = timed_series(s, names)
        series.update({
            "server.serve_events_per_s": [
                self.events / x for x in s.get("path.serve")
            ],
            "server.recover_events_per_s": [
                self.durable_events / x for x in s.get("server.recover")
            ],
            "server.ack_ms_p50": s.get("cycle.ack_ms_p50"),
            "server.ack_ms_p95": s.get("cycle.ack_ms_p95"),
        })
        values = {
            "mpisim.capture_overhead_ratio":
                s.median("mpisim.capture_run") / s.median("mpisim.null_run"),
            "mpisim.events": self.events,
            "mpisim.items": sum(inp.items for inp in self.inputs),
            "query.open_query_ms_p95":
                percentile(s.get("path.open_query"), 95) * 1e3,
            "decompress.events_per_s": self.events / s.median("decompress.all"),
            "server.batches": counters["server.batches"],
            "server.wire_bytes": log.wire_bytes,
            "server.checkpoints": counters["server.checkpoints"],
            "server.buffered_bytes_max": counters["server.buffered_bytes_max"],
            "server.throttles_seen": log.throttles,
            "server.reconnects": self.reconnects,
            "server.ack_ms_max": max(s.get("cycle.ack_ms_max")),
            "server.recovered_batches": self.durable_batches,
            "bench.tracing_overhead_ratio": statistics.median(
                # each daemon's submissions: recorder on, then off
                on / off for on, off in
                zip(s.get("path.serve"), s.get("bench.untraced_serve"))
            ),
            "bench.calibration_factor":
                statistics.median(self.timer.slowdowns),
        }
        return values, series


def _per_rep(values: list[float], jobs: int) -> list[float]:
    """Sum a per-job series into one value per set-up repetition."""
    return [sum(values[i:i + jobs]) for i in range(0, len(values), jobs)]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run(spec: Spec, seed: int, seconds: float, traced: bool, smoke: bool,
        recorder: Recorder, tmp: str, import_s: float,
        names: list[str]) -> Outcome:
    bench = ServeRun(spec, seed, recorder, tmp, import_s)
    return drive(bench, recorder, seconds, traced, smoke, names)
