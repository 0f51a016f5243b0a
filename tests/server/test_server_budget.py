"""Budget-mode daemon (docs/INTERNALS.md §14): byte-identity under
fold/spill pressure, budget-aware recovery, the budget-shrunk watermark,
and the pre-HELLO frame-loop hardening."""

import os
import socket

import pytest

from repro.core import run_cypress, serialize
from repro.server import protocol as proto
from repro.server.client import capture_workload, split_batches, submit_workload
from repro.server.daemon import CypressTraceServer, ServerConfig
from repro.server.session import SessionState, SessionStore
from repro.workloads import get as get_workload
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


class TestBudgetEndToEnd:
    def test_budget_submit_byte_identical_with_spills(self, tmp_path, oracle):
        # A 1-byte budget maximizes pressure: every idle rank is
        # spilled, every finalized rank folds.  The output must still be
        # byte-identical to the offline pipeline.
        cfg = _config(tmp_path, memory_budget=1)
        with ServerThread(cfg) as st:
            submit_workload(
                "127.0.0.1", st.server.port, job="bj", workload=WORKLOAD,
                nprocs=NPROCS, scale=SCALE, batch_events=32,
            )
        # Snapshot after the drain: the final seal/fold runs on the
        # server thread right after the last EOS_ACK hits the wire.
        snap = st.server.metrics_snapshot()
        got = open(os.path.join(cfg.out_dir, "bj.cyp"), "rb").read()
        assert got == oracle
        assert snap["budget.folds"] == NPROCS
        assert snap["budget.spills"] > 0
        assert snap["budget.reloads"] > 0
        assert snap["budget.peak_live_bytes"] > 0
        # finalize closes the spill store — nothing left on disk
        spill_root = os.path.join(cfg.state_dir, "spill", "bj")
        assert not os.path.exists(spill_root) or not os.listdir(spill_root)

    def test_budget_recovery_finalizes_byte_identical(self, tmp_path, oracle):
        # Crash-after-EOS_ACK: a fresh budgeted daemon must rebuild from
        # checkpoints alone, folding recovered ranks as it goes.
        cfg = _config(tmp_path, memory_budget=1)
        store = SessionStore(cfg.state_dir)
        streams = capture_workload(WORKLOAD, NPROCS, SCALE)
        for rank, stream in streams.items():
            s = SessionState(
                job="brecov", rank=rank, nranks=NPROCS,
                workload=WORKLOAD, scale=SCALE,
            )
            for seq, blob in enumerate(split_batches(stream, 32), start=1):
                s.accept(seq, blob)
            s.eos_seq = s.acked_seq
            store.checkpoint(s)
        server = CypressTraceServer(cfg)
        assert server.recover() == NPROCS
        got = open(os.path.join(cfg.out_dir, "brecov.cyp"), "rb").read()
        assert got == oracle
        snap = server.metrics_snapshot()
        assert snap["budget.folds"] == NPROCS

    def test_effective_watermark_shrinks_under_overage(self, tmp_path):
        cfg = _config(tmp_path, memory_budget=1,
                      high_watermark=1 << 20, low_watermark=1 << 16)
        server = CypressTraceServer(cfg)
        assert server._effective_high_watermark() == 1 << 20
        # Simulate unevictable overage on a live job's counters.
        session = SessionState(job="wj", rank=0, nranks=1,
                               workload=WORKLOAD, scale=SCALE)
        job = server._job_for(session)
        job.compressor.budget_counters.live_bytes = (1 << 19) + 1
        assert server._effective_high_watermark() == (1 << 20) - (1 << 19)
        # ...but never below the low watermark (wildcard deadlock guard).
        job.compressor.budget_counters.live_bytes = 10 << 20
        assert server._effective_high_watermark() == 1 << 16


class TestPreHelloFrames:
    def test_heartbeat_and_status_before_hello_keep_reader_alive(
            self, tmp_path):
        # Satellite: probes before HELLO must answer ERROR without
        # killing the reader task — the same connection can then
        # identify itself and proceed.
        cfg = _config(tmp_path)
        with ServerThread(cfg) as st:
            s = socket.create_connection(
                ("127.0.0.1", st.server.port), timeout=10)
            try:
                for frame in (proto.control_frame(proto.HEARTBEAT),
                              proto.control_frame(proto.STATUS)):
                    s.sendall(frame)
                    kind, payload = proto.read_frame(s)
                    assert kind == proto.ERROR
                    assert "HELLO" in proto.decode_control(payload)["error"]
                s.sendall(proto.control_frame(
                    proto.HELLO, job="ph", rank=0, nranks=1,
                    workload=WORKLOAD, scale=SCALE,
                ))
                kind, payload = proto.read_frame(s)
                assert kind == proto.HELLO_ACK
            finally:
                s.close()

    def test_batch_before_hello_is_fatal(self, tmp_path):
        # Data frames without identity still tear the connection down.
        cfg = _config(tmp_path)
        with ServerThread(cfg) as st:
            s = socket.create_connection(
                ("127.0.0.1", st.server.port), timeout=10)
            try:
                s.sendall(proto.batch_frame(1, b""))
                kind, payload = proto.read_frame(s)
                assert kind == proto.ERROR
                assert "HELLO" in proto.decode_control(payload)["error"]
                # The server closes its end: the next read hits EOF.
                s.settimeout(10)
                assert s.recv(1) == b""
            finally:
                s.close()
