"""CommEvent key/format tests."""

from repro.core.records import event_key
from repro.mpisim.events import (
    DIR_BOTH,
    DIR_NONE,
    DIR_RECV,
    DIR_SEND,
    CommEvent,
    direction_of,
    format_event,
)


def ev(**kw):
    base = dict(op="MPI_Send", rank=0, seq=0)
    base.update(kw)
    return CommEvent(**base)


class TestKeys:
    """The compression key of an event (``records.event_key``): every
    parameter but time, the sequence number and raw request ids."""

    @staticmethod
    def key(event, req_gids=()):
        return event_key(event, 0, True, req_gids)

    def test_key_excludes_time(self):
        a = ev(time_start=1.0, duration=2.0)
        b = ev(time_start=99.0, duration=5.0)
        assert self.key(a) == self.key(b)

    def test_key_excludes_seq_and_raw_requests(self):
        a = ev(seq=1, req=11, reqs=(1, 2))
        b = ev(seq=9, req=77, reqs=(3, 4))
        assert self.key(a) == self.key(b)

    def test_key_includes_req_gids(self):
        a = ev(op="MPI_Waitall", reqs=(1, 2))
        assert self.key(a, (3, 4)) != self.key(a, (3, 5))

    def test_key_includes_parameters(self):
        key = self.key
        assert key(ev(nbytes=8)) != key(ev(nbytes=16))
        assert key(ev(tag=1)) != key(ev(tag=2))
        assert key(ev(peer=1)) != key(ev(peer=2))
        assert key(ev(comm=0)) != key(ev(comm=1))
        assert key(ev(result_comm=1)) != key(ev(result_comm=2))

    def test_replay_tuple_matches_key_semantics(self):
        a = ev(peer=3, nbytes=64, tag=7)
        assert a.replay_tuple()[0] == "MPI_Send"
        assert a.replay_tuple() == ev(peer=3, nbytes=64, tag=7,
                                      time_start=5.0).replay_tuple()


class TestDirections:
    def test_send_ops(self):
        assert direction_of("MPI_Send") == DIR_SEND
        assert direction_of("MPI_Isend") == DIR_SEND

    def test_recv_ops(self):
        assert direction_of("MPI_Recv") == DIR_RECV
        assert direction_of("MPI_Irecv") == DIR_RECV

    def test_sendrecv_both(self):
        assert direction_of("MPI_Sendrecv") == DIR_BOTH

    def test_collectives_none(self):
        assert direction_of("MPI_Allreduce") == DIR_NONE
        assert ev(op="MPI_Barrier").direction == DIR_NONE


class TestFormat:
    def test_minimal(self):
        line = format_event(ev(op="MPI_Barrier"))
        assert line.startswith("MPI_Barrier r0")

    def test_full_p2p(self):
        line = format_event(
            ev(peer=3, nbytes=128, tag=9, req=5, time_start=1.5, duration=0.7)
        )
        for token in ("peer=3", "bytes=128", "tag=9", "req=5"):
            assert token in line

    def test_wildcard_marked(self):
        assert "anysrc" in format_event(ev(op="MPI_Recv", peer=2, wildcard=True))

    def test_wait_lists_requests(self):
        assert "reqs=1,2" in format_event(ev(op="MPI_Waitall", reqs=(1, 2)))
