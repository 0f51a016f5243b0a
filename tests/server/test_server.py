"""The ingest daemon end-to-end (in-process): byte-identity with the
batch pipeline, checkpoint-driven recovery, idle-timeout quarantine."""

import os
import socket
import time

import pytest

from repro.core import run_cypress, serialize
from repro.core.quarantine import QuarantineReport
from repro.server import protocol as proto
from repro.server.client import (
    ClientError,
    TraceClient,
    capture_workload,
    split_batches,
    submit_workload,
)
from repro.server.daemon import CypressTraceServer, ServerConfig
from repro.server.session import SessionStore
from repro.workloads import get as get_workload
from tests.faults.client import submit
from tests.server.harness import ServerThread

WORKLOAD, NPROCS, SCALE = "ep", 4, 0.5


@pytest.fixture(scope="module")
def oracle():
    w = get_workload(WORKLOAD)
    run = run_cypress(w.source, NPROCS, defines=w.defines(NPROCS, SCALE))
    return serialize.dumps(run.merge())


def _config(tmp_path, **kw):
    return ServerConfig(
        state_dir=str(tmp_path / "state"),
        out_dir=str(tmp_path / "out"),
        checkpoint_interval=0.05,
        **kw,
    )


def _wait_file(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return open(path, "rb").read()
        time.sleep(0.05)
    raise AssertionError(f"{path} never appeared")


class TestEndToEnd:
    def test_submit_produces_byte_identical_trace(self, tmp_path, oracle):
        cfg = _config(tmp_path)
        with ServerThread(cfg) as st:
            port = st.server.port
            result = submit_workload(
                "127.0.0.1", port, job="e2e", workload=WORKLOAD,
                nprocs=NPROCS, scale=SCALE, batch_events=32,
            )
            got = _wait_file(os.path.join(cfg.out_dir, "e2e.cyp"))
            assert got == oracle
            assert result["batches"] >= NPROCS
            snap = st.server.metrics_snapshot()
        assert snap["server.batches"] == result["batches"]
        assert snap["server.hellos"] >= NPROCS
        assert snap["server.checkpoints"] >= 1
        assert snap["server.jobs_finalized"] == 1

    def test_empty_rank_streams_still_finalize(self, tmp_path):
        # A zero-event stream still ships one (empty) CYPK blob so the
        # session reaches EOS and the job can complete.
        blobs = split_batches([], 16)
        assert len(blobs) == 1
        cfg = _config(tmp_path)
        with ServerThread(cfg) as st:
            client = TraceClient(
                "127.0.0.1", st.server.port, job="solo", rank=0, nranks=1,
                workload=WORKLOAD, scale=SCALE,
            )
            client.send(blobs)
            _wait_file(os.path.join(cfg.out_dir, "solo.cyp"))


class TestReconnect:
    """``TraceClient.send``'s retry and resume: one rank's connection
    fails mid-stream, the client reconnects, learns the acked sequence
    from HELLO_ACK and re-sends from there."""

    @pytest.mark.parametrize("faults", [
        {1: {"drop_after_batches": 2}},
        {1: {"torn_frame": True, "drop_after_batches": 1}},
    ], ids=["drop", "torn-frame"])
    def test_rank_resumes_byte_identical(self, tmp_path, oracle, faults):
        cfg = _config(tmp_path)
        with ServerThread(cfg) as st:
            result = submit(
                st.server.port, job="resume", workload=WORKLOAD,
                nprocs=NPROCS, scale=SCALE, batch_events=2, faults=faults,
            )
            got = _wait_file(os.path.join(cfg.out_dir, "resume.cyp"))
        assert got == oracle
        assert result["reconnects"] >= 1
        assert result["acked_regressions"] == 0


def _client(port, **kw):
    fields = dict(
        job="hello", rank=0, nranks=NPROCS, workload=WORKLOAD, scale=SCALE,
        max_attempts=3,
    )
    return TraceClient("127.0.0.1", port, **{**fields, **kw})


class TestHelloValidation:
    """A HELLO naming a session the daemon cannot hold is answered with
    an ERROR frame and a close: the client gives up at once instead of
    retrying against a bare hang-up."""

    @pytest.mark.parametrize("fields, error", [
        ({"rank": 0, "nranks": 4, "workload": WORKLOAD}, "lacks job"),
        ({"job": "j", "nranks": 4}, "lacks rank, workload"),
        ({"job": "j", "rank": "0", "nranks": 4, "workload": WORKLOAD},
         "must be integers"),
        ({"job": "j", "rank": 0, "nranks": 2.5, "workload": WORKLOAD},
         "must be integers"),
        ({"job": "j", "rank": True, "nranks": 4, "workload": WORKLOAD},
         "must be integers"),
        ({"job": "j", "rank": 0, "nranks": 4, "workload": ["ep"]},
         "unhashable"),
        ({"job": "j", "rank": 0, "nranks": 4, "workload": WORKLOAD,
          "scale": "big"}, "could not convert"),
    ])
    def test_malformed_hello_is_an_error_frame(self, tmp_path, fields,
                                               error):
        with ServerThread(_config(tmp_path)) as st:
            with socket.create_connection(
                ("127.0.0.1", st.server.port), timeout=5
            ) as sock:
                sock.sendall(proto.control_frame(proto.HELLO, **fields))
                kind, payload = proto.read_frame(sock)
                assert kind == proto.ERROR
                assert error in proto.decode_control(payload)["error"]
                with pytest.raises(ConnectionError):
                    proto.read_frame(sock)  # ...and the daemon hangs up
            assert st.server.metrics["server.protocol_errors"] == 1
            assert st.server.jobs == {}

    @pytest.mark.parametrize("kw, error", [
        ({"rank": 7}, "rank 7 outside [0, 4)"),
        ({"rank": -1}, "rank -1 outside [0, 4)"),
        ({"nranks": 0}, "rank 0 outside [0, 0)"),
        ({"workload": "nope"}, "unknown workload 'nope'"),
        ({"job": "../x"}, "bad job id '../x'"),
    ])
    def test_client_is_rejected_without_retrying(self, tmp_path, kw, error):
        with ServerThread(_config(tmp_path)) as st:
            client = _client(st.server.port, **kw)
            with pytest.raises(ClientError, match="server rejected HELLO") \
                    as excinfo:
                client.send(split_batches([], 16))
            assert error in str(excinfo.value)
            assert client.reconnects == 0
            assert st.server.metrics["server.protocol_errors"] == 1
            assert st.server.jobs == {}

    @pytest.mark.parametrize("kw, error", [
        ({"rank": 1, "nranks": 2}, "is ep on 4 ranks, not ep on 2"),
        ({"rank": 1, "workload": "cg"}, "is ep on 4 ranks, not cg on 4"),
    ])
    def test_hello_must_match_its_job(self, tmp_path, kw, error):
        with ServerThread(_config(tmp_path)) as st:
            port = st.server.port
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(proto.control_frame(
                    proto.HELLO, job="hello", rank=0, nranks=NPROCS,
                    workload=WORKLOAD, scale=SCALE,
                ))
                assert proto.read_frame(sock)[0] == proto.HELLO_ACK
            client = _client(port, **kw)
            with pytest.raises(ClientError, match="server rejected HELLO") \
                    as excinfo:
                client.send(split_batches([], 16))
            assert error in str(excinfo.value)
            assert client.reconnects == 0
            assert sorted(st.server.jobs["hello"].sessions) == [0]

    def test_out_of_range_rank_leaves_finalize_and_drain_intact(
        self, tmp_path, oracle
    ):
        # A rank 7 of 4 used to be acked: with ranks 0-2 it made the job
        # look complete, and finalize (in the connection callback, then
        # in the drain) raised KeyError for the missing rank 3.
        cfg = _config(tmp_path)
        streams = capture_workload(WORKLOAD, NPROCS, SCALE)
        with ServerThread(cfg) as st:
            rogue = _client(st.server.port, job="rogue", rank=7)
            with pytest.raises(ClientError, match="server rejected HELLO"):
                rogue.send(split_batches(streams[3], 32))
            for rank in range(NPROCS):
                _client(st.server.port, job="rogue", rank=rank).send(
                    split_batches(streams[rank], 32)
                )
            got = _wait_file(os.path.join(cfg.out_dir, "rogue.cyp"))
        assert got == oracle
        assert st.server.jobs["rogue"].finalized
        assert sorted(st.server.jobs["rogue"].sessions) == list(range(NPROCS))
        assert st.server.metrics["server.protocol_errors"] == 1
        assert st.server.metrics["server.drains"] == 1


class TestRecovery:
    def test_recover_reingests_and_finalizes(self, tmp_path, oracle):
        # Persist complete sessions (as the checkpoint loop would have)
        # and then boot a *fresh* daemon over the state dir: recovery
        # alone must rebuild the compressors, re-ingest every durable
        # batch, and finalize the job byte-identically — the crash-
        # after-EOS_ACK case where no client ever comes back.
        cfg = _config(tmp_path)
        store = SessionStore(cfg.state_dir)
        streams = capture_workload(WORKLOAD, NPROCS, SCALE)
        from repro.server.session import SessionState

        for rank, stream in streams.items():
            s = SessionState(
                job="recov", rank=rank, nranks=NPROCS,
                workload=WORKLOAD, scale=SCALE,
            )
            for seq, blob in enumerate(split_batches(stream, 32), start=1):
                s.accept(seq, blob)
            s.eos_seq = s.acked_seq
            store.checkpoint(s)
        server = CypressTraceServer(cfg)
        assert server.recover() == NPROCS
        got = open(os.path.join(cfg.out_dir, "recov.cyp"), "rb").read()
        assert got == oracle
        assert server.metrics["server.recoveries"] == NPROCS

    def test_partial_sessions_recover_without_finalizing(self, tmp_path):
        cfg = _config(tmp_path)
        store = SessionStore(cfg.state_dir)
        streams = capture_workload(WORKLOAD, NPROCS, SCALE)
        from repro.server.session import SessionState

        s = SessionState(
            job="partial", rank=0, nranks=NPROCS,
            workload=WORKLOAD, scale=SCALE,
        )
        blobs = split_batches(streams[0], 32)
        s.accept(1, blobs[0])  # mid-stream: no EOS
        store.checkpoint(s)
        server = CypressTraceServer(cfg)
        assert server.recover() == 1
        job = server.jobs["partial"]
        assert not job.finalized
        assert job.sessions[0].acked_seq == 1
        assert not os.path.exists(os.path.join(cfg.out_dir, "partial.cyp"))


class TestIdleQuarantine:
    def test_stalled_rank_quarantined_and_job_finalizes(
        self, tmp_path, monkeypatch
    ):
        # Satellite: quarantine by idle timeout — the new stage
        # ("server") alongside the existing intra kill/hang/raise kinds.
        # Rank 1 sends one batch and goes silent; rank 0 completes.  The
        # reaper must quarantine rank 1, finalize the job without it,
        # and emit a quarantine report that round-trips from JSON — and
        # that is on disk before it takes its name (a crash after
        # finalize must not leave an empty report beside the trace).
        synced = set()  # inodes fsynced so far
        renamed = {}  # destination -> was its source fsynced first?
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            real_fsync(fd)
            synced.add(os.fstat(fd).st_ino)

        def replace(src, dst):
            renamed[dst] = os.stat(src).st_ino in synced
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        cfg = _config(tmp_path, idle_timeout=0.4)
        streams = capture_workload(WORKLOAD, 2, SCALE)
        with ServerThread(cfg) as st:
            port = st.server.port
            stale = socket.create_connection(("127.0.0.1", port), timeout=5)
            try:
                stale.sendall(proto.control_frame(
                    proto.HELLO, job="stall", rank=1, nranks=2,
                    workload=WORKLOAD, scale=SCALE,
                ))
                kind, _ = proto.read_frame(stale)
                assert kind == proto.HELLO_ACK
                blob = split_batches(streams[1], 32)[0]
                stale.sendall(proto.batch_frame(1, blob))
                kind, _ = proto.read_frame(stale)
                assert kind == proto.BATCH_ACK
                # ...and then rank 1 never speaks again.
                client = TraceClient(
                    "127.0.0.1", port, job="stall", rank=0, nranks=2,
                    workload=WORKLOAD, scale=SCALE,
                )
                client.send(split_batches(streams[0], 32))
                _wait_file(os.path.join(cfg.out_dir, "stall.cyp"))
                qjson = _wait_file(
                    os.path.join(cfg.out_dir, "stall.quarantine.json")
                )
            finally:
                stale.close()
        assert renamed[os.path.join(cfg.out_dir, "stall.cyp")]
        assert renamed[os.path.join(cfg.out_dir, "stall.quarantine.json")]
        report = QuarantineReport.from_json(qjson.decode())
        assert report.ranks() == [1]
        item = report.get(1)
        assert item.stage == "server"
        assert "idle timeout" in item.error
        # The merged trace holds only the healthy rank.
        merged = serialize.load(os.path.join(cfg.out_dir, "stall.cyp"))
        assert merged.nranks_merged == 1


class _Sink:
    def __init__(self):
        self.frames = []

    def write(self, frame):
        self.frames.append(frame)


class TestDecodeOnce:
    """A batch is decoded once — by the pre-ack validation, whose items
    the ingest reuses — and a poison batch is refused before the ack."""

    @staticmethod
    def _spy_decodes(monkeypatch):
        from repro.core import packed

        decodes = []
        real = packed.decode_stream

        def spy(source):
            decodes.append(len(source))
            return real(source)

        monkeypatch.setattr(packed, "decode_stream", spy)
        return decodes

    @staticmethod
    def _session():
        from repro.server.session import SessionState

        return SessionState(
            job="once", rank=0, nranks=NPROCS, workload=WORKLOAD, scale=SCALE,
        )

    def _server(self, tmp_path, monkeypatch):
        server = CypressTraceServer(_config(tmp_path))
        session = self._session()
        job = server._job_for(session)
        job.sessions[0] = session
        return server, job, session, self._spy_decodes(monkeypatch)

    def test_live_batch_decodes_once(self, tmp_path, monkeypatch):
        server, job, session, decodes = self._server(tmp_path, monkeypatch)
        blobs = split_batches(capture_workload(WORKLOAD, NPROCS, SCALE)[0], 4)
        sink = _Sink()
        for seq, blob in enumerate(blobs, start=1):
            server._on_batch(job, session, proto._SEQ.pack(seq) + blob, sink)
        assert decodes == [len(b) for b in blobs]
        # A retransmitted (already acked) batch is not decoded at all.
        server._on_batch(job, session, proto._SEQ.pack(1) + blobs[0], sink)
        assert len(decodes) == len(blobs)
        assert session.acked_seq == len(blobs)
        assert len(sink.frames) == len(blobs) + 1

    def test_recovery_replay_decodes_once(self, tmp_path, monkeypatch):
        cfg = _config(tmp_path)
        blobs = split_batches(capture_workload(WORKLOAD, NPROCS, SCALE)[0], 4)
        s = self._session()
        for seq, blob in enumerate(blobs, start=1):
            s.accept(seq, blob)
        SessionStore(cfg.state_dir).checkpoint(s)
        decodes = self._spy_decodes(monkeypatch)
        assert CypressTraceServer(cfg).recover() == 1
        assert decodes == [len(b) for b in blobs]

    def test_poison_batch_refused_before_ack(self, tmp_path, monkeypatch):
        server, job, session, decodes = self._server(tmp_path, monkeypatch)
        blobs = split_batches(capture_workload(WORKLOAD, NPROCS, SCALE)[0], 4)
        sink = _Sink()
        server._on_batch(job, session, proto._SEQ.pack(1) + blobs[0], sink)
        server._checkpoint_session(session)
        log = server.store.log_path("once", 0)
        durable = open(log, "rb").read()
        poison = blobs[1][: len(blobs[1]) // 2]  # CYPK magic, torn body
        with pytest.raises(proto.ProtocolError, match="undecodable"):
            server._on_batch(job, session, proto._SEQ.pack(2) + poison, sink)
        assert len(decodes) == 2  # the poison batch was decoded (once) too
        assert session.acked_seq == 1 and len(sink.frames) == 1
        assert not session.mem_batches
        server.checkpoint_all()
        assert open(log, "rb").read() == durable


@pytest.mark.parametrize("blob", [
    b"CYPK\x01\x05",  # header cut inside the op table
    b"CYPK\x01\x01\x00\x01\x00\xff" + b"\x00" * 40,  # op name not UTF-8
])
def test_malformed_blob_is_one_protocol_error(blob):
    with pytest.raises(proto.ProtocolError, match="undecodable"):
        CypressTraceServer._validate_blob(blob)


class TestFaultsmokeKillPoints:
    @pytest.mark.parametrize("seed", [20260807, 20260809])
    @pytest.mark.parametrize("kills", [1, 2])
    def test_every_kill_fires_with_a_batch_to_spare(self, seed, kills):
        # A kill point at or past the batch count never fires, and the
        # scenario then waits out its timeout (farm sends 9 batches;
        # seed 20260807 used to draw 12).
        from tests.faults import smoke

        for workload, nprocs, scale in smoke.MATRIX:
            owed = smoke.submission_batches(workload, nprocs, scale)
            points = smoke.kill_points(seed, workload, kills, owed)
            assert len(points) == kills
            for point in points:
                assert 1 <= point < owed, (workload, points)
                owed -= point - 1
