"""Session persistence: exactly-once accept, the log append on accept,
checkpoint round-trips, torn-log salvage (a sweep over every cut and
every section), and recovery semantics."""

import os

import pytest

from repro.core.quarantine import QuarantinedRank
from repro.server.session import SessionState, SessionStore, check_job_id


def _session(job="j1", rank=0, nranks=2):
    return SessionState(
        job=job, rank=rank, nranks=nranks, workload="ep", scale=0.5
    )


class TestSessionState:
    def test_accept_contiguous_and_dedup(self):
        s = _session()
        assert s.accept(1) is True
        assert s.accept(2) is True
        assert s.acked_seq == 2
        # Duplicates (at or below acked) are the exactly-once dedup.
        assert s.accept(1) is False
        assert s.accept(2) is False
        assert s.acked_seq == 2

    def test_accept_gap_raises(self):
        s = _session()
        s.accept(1)
        with pytest.raises(ValueError, match="out-of-order"):
            s.accept(3)

    def test_finalized_needs_eos_and_full_ack(self):
        s = _session()
        s.accept(1)
        assert not s.finalized
        s.eos_seq = 2
        assert not s.finalized
        s.accept(2)
        assert s.finalized

    def test_job_id_validation(self):
        assert check_job_id("run-1.retry_2") == "run-1.retry_2"
        for bad in ("", "../etc", "a b", "-lead", "x" * 200, None):
            with pytest.raises((ValueError, TypeError)):
                check_job_id(bad)




def _create(store, job="j1", rank=0, nranks=2):
    return store.create(job, rank, nranks, "ep", 0.5)


class TestCheckpointRoundTrip:
    def test_checkpoint_then_read_back(self, tmp_path):
        store = SessionStore(str(tmp_path))
        s = _create(store)
        store.accept(s, 1, b"alpha")
        store.accept(s, 2, b"beta")
        assert s.dirty
        store.checkpoint(s)
        assert not s.dirty
        assert store.read_log_batches("j1", 0) == [(1, b"alpha"), (2, b"beta")]
        (rec,) = store.load_all()
        assert (rec.job, rec.rank) == ("j1", 0)
        assert rec.session.acked_seq == 2
        assert (rec.session.nranks, rec.session.workload,
                rec.session.scale) == (2, "ep", 0.5)

    def test_incremental_appends_accumulate(self, tmp_path):
        store = SessionStore(str(tmp_path))
        s = _create(store)
        store.accept(s, 1, b"a")
        store.checkpoint(s)
        store.accept(s, 2, b"b")
        store.accept(s, 3, b"c")
        store.checkpoint(s)
        assert [seq for seq, _ in store.read_log_batches("j1", 0)] == [1, 2, 3]

    def test_torn_log_tail_salvages_prefix(self, tmp_path):
        store = SessionStore(str(tmp_path))
        s = _create(store)
        for i, blob in enumerate((b"one", b"two", b"three"), start=1):
            store.accept(s, i, blob)
        store.checkpoint(s)
        path = store.log_path("j1", 0)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-4])  # crash mid-append: tear the last section
        batches = store.read_log_batches("j1", 0)
        assert batches == [(1, b"one"), (2, b"two")]

    def test_log_garbage_yields_nothing(self, tmp_path):
        store = SessionStore(str(tmp_path))
        path = store.log_path("j1", 0)
        with open(path, "wb") as fh:
            fh.write(b"not a session log at all")
        assert store.read_log_batches("j1", 0) == []

    def test_accept_appends_before_the_ack(self, tmp_path):
        # No batch waits in memory for a checkpoint: the log holds it
        # the moment the session counts it acked.  Dups and gaps write
        # nothing.
        store = SessionStore(str(tmp_path))
        s = _create(store)
        assert store.accept(s, 1, b"one")
        assert store.read_log_batches("j1", 0) == [(1, b"one")]
        size = os.path.getsize(store.log_path("j1", 0))
        assert not store.accept(s, 1, b"one")
        with pytest.raises(ValueError, match="out-of-order"):
            store.accept(s, 3, b"three")
        assert os.path.getsize(store.log_path("j1", 0)) == size
        assert s.acked_seq == 1

    def test_batch_one_starts_the_log_afresh(self, tmp_path):
        # A session created again (its client restarts from batch 1)
        # overwrites the stale log instead of appending behind it.
        store = SessionStore(str(tmp_path))
        s = _create(store)
        store.accept(s, 1, b"old")
        store.accept(s, 2, b"old2")
        s = _create(store)
        store.accept(s, 1, b"new")
        assert store.read_log_batches("j1", 0) == [(1, b"new")]


class TestRecovery:
    def test_load_all_discovers_sessions(self, tmp_path):
        store = SessionStore(str(tmp_path))
        for rank in (0, 1):
            store.accept(_create(store, rank=rank), 1, b"x")
        recs = store.load_all()
        assert [(r.job, r.rank) for r in recs] == [("j1", 0), ("j1", 1)]
        assert recs[0].session.acked_seq == 1
        assert not recs[0].session.dirty

    def test_eos_forgotten_when_tail_batches_lost(self, tmp_path):
        # The EOS record sits behind the batches it covers, so a log
        # torn inside the last batch loses the EOS with it: the client
        # re-sends from the durable point.
        store = SessionStore(str(tmp_path))
        s = _create(store)
        store.accept(s, 1, b"one")
        store.accept(s, 2, b"two")
        torn_at = os.path.getsize(store.log_path("j1", 0)) - 4
        s.eos_seq = 2
        store.record_state(s)
        store.checkpoint(s)
        path = store.log_path("j1", 0)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:torn_at])
        state = store.load_all()[0].session
        assert state.acked_seq == 1
        assert state.eos_seq is None
        assert not state.finalized

    def test_torn_tail_is_cut_off_at_recovery(self, tmp_path):
        # Batches appended after a torn tail used to land behind the
        # garbage, where the prefix scan never reaches them.
        store = SessionStore(str(tmp_path))
        s = _create(store)
        for i, blob in enumerate((b"one", b"two", b"three"), start=1):
            store.accept(s, i, blob)
        store.checkpoint(s)
        path = store.log_path("j1", 0)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-4])
        s = store.load_all()[0].session
        assert s.acked_seq == 2
        store.accept(s, 3, b"three")
        store.accept(s, 4, b"four")
        store.checkpoint(s)
        (rec,) = store.load_all()
        assert rec.session.acked_seq == 4
        assert rec.batches == [
            (1, b"one"), (2, b"two"), (3, b"three"), (4, b"four"),
        ]

    def test_log_without_identity_is_skipped(self, tmp_path):
        # A log whose first section is no valid identity (here: a
        # version-1 log, whose identity lived in a separate file) is
        # left alone; the client's HELLO starts that session afresh.
        store = SessionStore(str(tmp_path))
        s = _create(store)
        store.accept(s, 1, b"x")
        path = store.log_path("j1", 0)
        data = bytearray(open(path, "rb").read())
        data[4] = 1
        with open(path, "wb") as fh:
            fh.write(data)
        assert store.discover() == [("j1", 0)]
        assert store.load_all() == []
        assert open(path, "rb").read() == data

    def test_quarantine_survives_meta_roundtrip(self, tmp_path):
        # An idle (stage-"server") quarantine is a state record in the
        # log; a mismatch (stage-"intra") one is not stored, because
        # re-ingesting the batches raises it again.
        store = SessionStore(str(tmp_path))
        s = _create(store)
        s.quarantined = QuarantinedRank(
            rank=0, stage="server", error="idle timeout after 1s", events=0
        )
        store.record_state(s)
        other = _create(store, rank=1)
        other.quarantined = QuarantinedRank(
            rank=1, stage="intra", error="mismatch", events=3
        )
        store.record_state(other)
        idle, intra = (rec.session for rec in store.load_all())
        assert idle.quarantined is not None
        assert idle.quarantined.stage == "server"
        assert "idle timeout" in idle.quarantined.error
        assert intra.quarantined is None


class TestTornLogSweep:
    """A log with every section kind, cut at every byte and flipped in
    every section: recovery never raises, keeps the identity or skips
    the session, and adopts exactly the complete sections in front of
    the damage."""

    # What each section of the log built below leaves recovery with:
    # (acked_seq, quarantined, eos_seq).
    EXPECT = [
        (0, False, None),  # identity
        (1, False, None),  # batch 1
        (2, False, None),  # batch 2
        (2, True, None),   # idle quarantine
        (2, False, None),  # revival
        (3, False, None),  # batch 3
        (3, False, 3),     # EOS
    ]

    @staticmethod
    def _build(store):
        """The log bytes and the end offset of each section."""
        path = store.log_path("j1", 0)
        ends = []
        s = _create(store)
        ends.append(os.path.getsize(path))
        for seq, blob in ((1, b"one"), (2, b"two")):
            store.accept(s, seq, blob)
            ends.append(os.path.getsize(path))
        s.quarantined = QuarantinedRank(
            rank=0, stage="server", error="idle timeout after 1s", events=0
        )
        store.record_state(s)
        ends.append(os.path.getsize(path))
        s.quarantined = None
        store.record_state(s)
        ends.append(os.path.getsize(path))
        store.accept(s, 3, b"three")
        ends.append(os.path.getsize(path))
        s.eos_seq = 3
        store.record_state(s)
        ends.append(os.path.getsize(path))
        return open(path, "rb").read(), ends

    def _check(self, store, data, ends, complete):
        """Recover ``data``; ``complete`` sections of it are intact."""
        path = store.log_path("j1", 0)
        with open(path, "wb") as fh:
            fh.write(data)
        recs = store.load_all()
        if complete == 0:
            assert recs == []
            return
        (rec,) = recs
        acked, quarantined, eos = self.EXPECT[complete - 1]
        s = rec.session
        assert (s.nranks, s.workload, s.scale) == (2, "ep", 0.5)
        assert s.acked_seq == acked
        assert [seq for seq, _ in rec.batches] == list(range(1, acked + 1))
        assert (s.quarantined is not None) == quarantined
        assert s.eos_seq == eos
        assert s.finalized == (complete == len(ends))
        assert os.path.getsize(path) == ends[complete - 1]

    def test_every_cut(self, tmp_path):
        store = SessionStore(str(tmp_path))
        data, ends = self._build(store)
        assert ends[-1] == len(data)
        for cut in range(len(data) + 1):
            complete = sum(end <= cut for end in ends)
            self._check(store, data[:cut], ends, complete)

    def test_every_section_flip(self, tmp_path):
        store = SessionStore(str(tmp_path))
        data, ends = self._build(store)
        for i, (start, end) in enumerate(zip([0] + ends, ends)):
            for pos in (start, (start + end) // 2, end - 1):
                flipped = bytearray(data)
                flipped[pos] ^= 0x40
                self._check(store, bytes(flipped), ends, i)
