"""Runtime tests using hand-written rank generators (no MiniMPI)."""

import pytest

from repro.mpisim.datatypes import ANY_SOURCE
from repro.mpisim.errors import (
    CollectiveMismatchError,
    DeadlockError,
    InvalidRequestError,
    MPISimError,
    ProgramError,
)
from repro.mpisim.pmpi import RecordingSink
from repro.mpisim.runtime import Runtime


def run(nprocs, fn, tracer=None):
    runtime = Runtime(nprocs, tracer=tracer)
    result = runtime.run(fn)
    return runtime, result


class TestPointToPoint:
    def test_send_recv_pair(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.call("mpi_send", [1, 100, 7])
            else:
                yield from comm.call("mpi_recv", [0, 100, 7])

        _, result = run(2, main)
        assert result.total_messages == 1

    def test_recv_blocks_until_send(self):
        order = []

        def main(comm):
            if comm.rank == 0:
                yield from comm.call("mpi_recv", [1, 8, 0])
                order.append("recv-done")
            else:
                order.append("sending")
                yield from comm.call("mpi_send", [0, 8, 0])

        run(2, main)
        assert order == ["sending", "recv-done"]

    def test_wildcard_recv_records_actual_source(self):
        sink = RecordingSink()

        def main(comm):
            if comm.rank == 0:
                yield from comm.call("mpi_recv", [ANY_SOURCE, 8, 0])
            else:
                yield from comm.call("mpi_send", [0, 8, 0])

        run(2, main, tracer=sink)
        (ev,) = sink.events[0]
        assert ev.op == "MPI_Recv" and ev.peer == 1 and ev.wildcard

    def test_self_message(self):
        def main(comm):
            yield from comm.call("mpi_send", [comm.rank, 8, 0])
            yield from comm.call("mpi_recv", [comm.rank, 8, 0])

        _, result = run(2, main)
        assert result.total_messages == 2

    def test_message_clock_ordering(self):
        clocks = {}

        def main(comm):
            if comm.rank == 0:
                comm.clock = 100.0
                yield from comm.call("mpi_send", [1, 1000, 0])
            else:
                yield from comm.call("mpi_recv", [0, 1000, 0])
                clocks["recv_done"] = comm.clock

        run(2, main)
        assert clocks["recv_done"] > 100.0  # waited for the message

    def test_bad_peer_rejected(self):
        def main(comm):
            yield from comm.call("mpi_send", [5, 8, 0])

        with pytest.raises(ProgramError):
            run(2, main)

    def test_negative_bytes_rejected(self):
        def main(comm):
            yield from comm.call("mpi_send", [0, -1, 0])

        with pytest.raises(ProgramError):
            run(2, main)


class TestNonblocking:
    def test_isend_irecv_wait(self):
        def main(comm):
            if comm.rank == 0:
                req = yield from comm.call("mpi_isend", [1, 64, 3])
                yield from comm.call("mpi_wait", [req])
            else:
                req = yield from comm.call("mpi_irecv", [0, 64, 3])
                yield from comm.call("mpi_wait", [req])

        _, result = run(2, main)
        assert result.total_messages == 1

    def test_waitall(self):
        def main(comm):
            peer = 1 - comm.rank
            r1 = yield from comm.call("mpi_irecv", [peer, 8, 0])
            r2 = yield from comm.call("mpi_isend", [peer, 8, 0])
            yield from comm.call("mpi_waitall", [[r1, r2], 2])

        run(2, main)

    def test_waitany_returns_index(self):
        got = {}

        def main(comm):
            if comm.rank == 0:
                r1 = yield from comm.call("mpi_irecv", [1, 8, 1])
                r2 = yield from comm.call("mpi_irecv", [1, 8, 2])
                idx = yield from comm.call("mpi_waitany", [[r1, r2], 2])
                got["first"] = idx
                yield from comm.call("mpi_waitall", [[r1 if idx else r2], 1])
            else:
                yield from comm.call("mpi_send", [0, 8, 2])
                yield from comm.call("mpi_send", [0, 8, 1])

        run(2, main)
        assert got["first"] in (0, 1)

    def test_waitsome_returns_count(self):
        got = {}

        def main(comm):
            if comm.rank == 0:
                r1 = yield from comm.call("mpi_irecv", [1, 8, 1])
                r2 = yield from comm.call("mpi_irecv", [1, 8, 2])
                n = yield from comm.call("mpi_waitsome", [[r1, r2], 2])
                got["n"] = n
            else:
                yield from comm.call("mpi_send", [0, 8, 1])
                yield from comm.call("mpi_send", [0, 8, 2])

        run(2, main)
        assert got["n"] >= 1
        # Note: waitsome may leave requests unconsumed; this test sends both
        # before rank 0 waits, so both complete and are consumed.
        assert got["n"] == 2

    def test_test_polls(self):
        got = {}

        def main(comm):
            if comm.rank == 0:
                req = yield from comm.call("mpi_irecv", [1, 8, 0])
                got["first"] = yield from comm.call("mpi_test", [req])
                while True:
                    flag = yield from comm.call("mpi_test", [req])
                    if flag:
                        break
                    yield
            else:
                yield
                yield from comm.call("mpi_send", [0, 8, 0])

        run(2, main)

    def test_consumed_requests_leave_the_table(self):
        """Every request a wait or a test returned is gone from
        ``Runtime.requests`` once the run ends; one still in flight is
        there until then."""
        seen = {}

        def main(comm):
            if comm.rank == 0:
                a = yield from comm.call("mpi_isend", [1, 8, 0])
                b = yield from comm.call("mpi_irecv", [1, 8, 1])
                seen["in flight"] = {a, b} <= comm.runtime.requests.keys()
                yield from comm.call("mpi_waitall", [[a, b, a], 3])
                c = yield from comm.call("mpi_irecv", [1, 8, 2])
                d = yield from comm.call("mpi_irecv", [1, 8, 3])
                idx = yield from comm.call("mpi_waitany", [[c, d], 2])
                rest = [c, d][1 - idx]
                yield from comm.call("mpi_waitsome", [[rest], 1])
                e = yield from comm.call("mpi_irecv", [1, 8, 4])
                while not (yield from comm.call("mpi_test", [e])):
                    yield
            else:
                yield from comm.call("mpi_recv", [0, 8, 0])
                r = yield from comm.call("mpi_isend", [0, 8, 1])
                yield from comm.call("mpi_wait", [r])
                for tag in (2, 3, 4):
                    yield from comm.call("mpi_send", [0, 8, tag])

        runtime, _ = run(2, main)
        assert seen["in flight"]
        assert runtime.requests == {}

    def test_double_wait_rejected(self):
        def main(comm):
            if comm.rank == 0:
                req = yield from comm.call("mpi_isend", [1, 8, 0])
                yield from comm.call("mpi_wait", [req])
                yield from comm.call("mpi_wait", [req])
            else:
                yield from comm.call("mpi_recv", [0, 8, 0])

        with pytest.raises(InvalidRequestError):
            run(2, main)

    def test_unknown_request_rejected(self):
        def main(comm):
            yield from comm.call("mpi_wait", [999])

        with pytest.raises(InvalidRequestError):
            run(1, main)


class TestErrors:
    def test_deadlock_detected(self):
        def main(comm):
            yield from comm.call("mpi_recv", [1 - comm.rank, 8, 0])

        with pytest.raises(DeadlockError) as exc:
            run(2, main)
        assert 0 in exc.value.blocked and 1 in exc.value.blocked

    def test_unmatched_send_detected(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.call("mpi_send", [1, 8, 0])
            return
            yield

        with pytest.raises(MPISimError, match="never received"):
            run(2, main)

    def test_orphan_irecv_detected(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.call("mpi_irecv", [1, 8, 0])
            return
            yield

        with pytest.raises(MPISimError, match="never matched"):
            run(2, main)

    def test_collective_mismatch(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.call("mpi_bcast", [0, 8])
            else:
                yield from comm.call("mpi_reduce", [0, 8])

        with pytest.raises(CollectiveMismatchError):
            run(2, main)

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            Runtime(0)


class TestRunResult:
    def test_event_counts(self):
        sink = RecordingSink()

        def main(comm):
            yield from comm.call("mpi_init", [])
            yield from comm.call("mpi_barrier", [])
            yield from comm.call("mpi_finalize", [])

        _, result = run(4, main, tracer=sink)
        assert result.total_events == 12
        assert result.elapsed > 0
