"""Resilient pool executor: retry ladder, timeouts, serial fallback —
and byte-identity of recovered pipeline results."""

import dataclasses
import multiprocessing
import time
import warnings

import pytest

from repro import obs
from repro.core import StreamMismatchError, packed, run_cypress, serialize
from repro.core.inter import merge_all
from repro.core.intra import compress_streams
from repro.core.respool import run_tasks
from repro.driver import run_compiled
from repro.faults import FaultPlan, WorkerFault
from repro.mpisim.pmpi import OP_EVENT, StreamCaptureSink
from repro.static.instrument import compile_minimpi

SRC = """
func main() {
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < 6; i = i + 1) {
    if (rank < size - 1) { mpi_send(rank + 1, 64, 1); }
    if (rank > 0) { mpi_recv(rank - 1, 64, 1); }
    mpi_allreduce(8);
  }
}
"""


def _double(x):
    return x * 2


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd payload {x}")
    return x


@pytest.fixture(scope="module")
def captured():
    compiled = compile_minimpi(SRC)
    capture = StreamCaptureSink()
    run_compiled(compiled, 4, tracer=capture)
    return compiled, capture.streams


@pytest.fixture
def registry():
    reg = obs.enable()
    yield reg
    obs.disable()


def _blob(comp):
    return serialize.dumps(merge_all([comp.ctt(r) for r in comp.ranks()]))


class TestHappyPath:
    def test_results_in_payload_order(self):
        out = run_tasks(_double, list(range(6)), stage="intra", workers=3)
        assert out == [0, 2, 4, 6, 8, 10]

    def test_empty(self):
        assert run_tasks(_double, [], stage="intra", workers=2) == []


class TestInjectedWorkerFaults:
    @pytest.mark.parametrize("action", ["raise", "kill"])
    def test_single_fault_recovers_via_retry(self, action):
        plan = FaultPlan(worker_faults=(
            WorkerFault(stage="intra", task=1, action=action),
        ))
        with warnings.catch_warnings():
            # A recoverable retry must be warning-free: degradation
            # warnings are reserved for serial fallback.
            warnings.simplefilter("error")
            out = run_tasks(
                _double, [1, 2, 3], stage="intra", workers=3,
                retries=1, fault_plan=plan, backoff=0.01,
            )
        assert out == [2, 4, 6]

    def test_hang_is_killed_and_retried(self):
        plan = FaultPlan(
            worker_faults=(
                WorkerFault(stage="intra", task=0, action="hang"),
            ),
            hang_seconds=30.0,
        )
        t0 = time.monotonic()
        out = run_tasks(
            _double, [5, 6], stage="intra", workers=2,
            retries=1, timeout=1.0, fault_plan=plan, backoff=0.01,
        )
        assert out == [10, 12]
        # The hung worker was killed at the 1s deadline, not joined for
        # its full 30s sleep.
        assert time.monotonic() - t0 < 15.0

    def test_persistent_fault_falls_back_to_serial(self):
        plan = FaultPlan(worker_faults=(
            WorkerFault(stage="intra", task=0, action="kill", attempts=99),
        ))
        with pytest.warns(RuntimeWarning, match="re-executing serially"):
            out = run_tasks(
                _double, [7, 8], stage="intra", workers=2,
                retries=1, fault_plan=plan, backoff=0.01,
            )
        # The parent-side serial re-execution runs without injection.
        assert out == [14, 16]

    def test_deterministic_task_error_reraises_as_itself(self):
        with pytest.warns(RuntimeWarning, match="re-executing serially"):
            with pytest.raises(ValueError, match="odd payload 3"):
                run_tasks(
                    _fail_on_odd, [2, 3], stage="intra", workers=2,
                    retries=0, backoff=0.01,
                )

    def test_fault_counters_published(self):
        plan = FaultPlan(worker_faults=(
            WorkerFault(stage="intra", task=0, action="raise"),
        ))
        registry = obs.enable()
        try:
            run_tasks(
                _double, [1, 2], stage="intra", workers=2,
                retries=1, fault_plan=plan, backoff=0.01,
            )
        finally:
            obs.disable()
        assert registry.counters.get("faults.task_failures", 0) >= 1
        assert registry.counters.get("faults.retries", 0) >= 1
        assert registry.counters.get("faults.pool_fallbacks", 0) == 0


class TestPipelineRecoveryByteIdentity:
    """The acceptance bar: a worker crash mid-pipeline must not change a
    single output byte."""

    @pytest.fixture(scope="class")
    def healthy_bytes(self):
        run = run_cypress(SRC, nprocs=4)
        return serialize.dumps(run.merge())

    @pytest.mark.parametrize("action", ["raise", "kill"])
    def test_intra_worker_fault_recovers_identically(
        self, action, healthy_bytes
    ):
        plan = FaultPlan(worker_faults=(
            WorkerFault(stage="intra", task=0, action=action),
        ))
        run = run_cypress(
            SRC, nprocs=4, compress_workers=2, fault_plan=plan
        )
        assert not run.quarantine
        assert serialize.dumps(run.merge()) == healthy_bytes

    @pytest.mark.parametrize("action", ["raise", "kill"])
    def test_inter_worker_fault_recovers_identically(
        self, action, healthy_bytes
    ):
        plan = FaultPlan(worker_faults=(
            WorkerFault(stage="inter", task=0, action=action),
        ))
        run = run_cypress(SRC, nprocs=4)
        ctts = [run.compressor.ctt(r) for r in range(4)]
        merged = merge_all(
            ctts, workers=2, parallel_threshold=2, fault_plan=plan
        )
        assert serialize.dumps(merged) == healthy_bytes

    def test_inter_persistent_fault_serial_fallback_identical(
        self, healthy_bytes
    ):
        plan = FaultPlan(worker_faults=(
            WorkerFault(stage="inter", task=0, action="kill", attempts=99),
        ))
        run = run_cypress(SRC, nprocs=4)
        ctts = [run.compressor.ctt(r) for r in range(4)]
        with pytest.warns(RuntimeWarning, match="re-executing serially"):
            merged = merge_all(
                ctts, workers=2, parallel_threshold=2,
                retries=1, fault_plan=plan,
            )
        assert serialize.dumps(merged) == healthy_bytes

    def test_strict_mode_error_propagates_through_pool(self):
        plan = FaultPlan(seed=11, corrupt_ranks=(2,))
        with pytest.warns(RuntimeWarning, match="re-executing serially"):
            with pytest.raises(StreamMismatchError):
                run_cypress(
                    SRC, nprocs=4, compress_workers=2,
                    fault_plan=plan, strict=True,
                )


class TestWorkersRoute:
    """``compress_streams(workers=2)`` has one route — ``run_tasks`` —
    and its result is byte-identical to serial whatever the input form
    and whatever happens to a worker."""

    def test_packed_blob_input_equals_serial(self, captured):
        # bytes input is decoded inside the workers, then walked.
        compiled, streams = captured
        serial = _blob(compress_streams(compiled.cst, streams, workers=None))
        blobs = {
            r: packed.encode_stream(s).to_bytes() for r, s in streams.items()
        }
        assert _blob(compress_streams(compiled.cst, blobs, workers=2)) == serial

    def test_killed_worker_retries_to_identical_bytes(
        self, captured, registry
    ):
        compiled, streams = captured
        serial = _blob(compress_streams(compiled.cst, streams, workers=None))
        plan = FaultPlan(
            worker_faults=(WorkerFault(stage="intra", task=0, action="kill"),)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a recovered retry is silent
            comp = compress_streams(
                compiled.cst, streams, workers=2, fault_plan=plan
            )
        assert registry.counters.get("faults.retries", 0) == 1
        assert registry.counters.get("faults.pool_fallbacks", 0) == 0
        assert _blob(comp) == serial

    def test_corrupt_rank_is_quarantined_healthy_ranks_compress(self, captured):
        compiled, streams = captured
        # Rewrite one event's op on rank 1 so its stream no longer
        # matches the CST: the mismatch surfaces at ingest inside a
        # worker, whose quarantine report must travel home with the
        # healthy results.
        bad = dict(streams)
        mutated = list(bad[1])
        for i, item in enumerate(mutated):
            if item[0] == OP_EVENT:
                mutated[i] = (
                    OP_EVENT, dataclasses.replace(item[1], op="MPI_Scan"),
                )
                break
        bad[1] = mutated
        comp = compress_streams(compiled.cst, bad, workers=2, strict=False)
        assert [q.rank for q in comp.quarantine] == [1]
        q = next(iter(comp.quarantine))
        assert q.stage == "intra"
        assert q.raw_stream is not None
        assert comp.ranks() == [0, 2, 3]


class TestNoForkDegradation:
    """Platforms without the fork start method: the pool must refuse to
    silently switch to spawn — loud serial execution instead."""

    def _no_fork(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )

    def test_run_tasks_serial_fallback_is_loud(self, monkeypatch, registry):
        self._no_fork(monkeypatch)
        with pytest.warns(RuntimeWarning, match="running serially"):
            out = run_tasks(_double, [1, 2, 3], stage="intra", workers=3)
        assert out == [2, 4, 6]
        assert registry.counters.get("faults.pool_fallbacks", 0) == 3

    def test_compress_streams_still_correct_without_fork(
        self, captured, monkeypatch, registry
    ):
        compiled, streams = captured
        serial = _blob(compress_streams(compiled.cst, streams, workers=None))
        self._no_fork(monkeypatch)
        with pytest.warns(RuntimeWarning, match="running serially"):
            degraded = _blob(
                compress_streams(compiled.cst, streams, workers=2)
            )
        assert degraded == serial
        assert registry.counters.get("faults.pool_fallbacks", 0) == 2
