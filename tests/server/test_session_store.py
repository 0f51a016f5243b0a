"""Session persistence: exactly-once accept, the log append on accept,
checkpoint round-trips, torn-log salvage, meta slot alternation, and
recovery semantics."""

import os

import pytest

from repro.server.session import (
    RecoveredSession,
    SessionState,
    SessionStore,
    check_job_id,
)


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


class TestCheckpointRoundTrip:
    def test_checkpoint_then_read_back(self, tmp_path):
        store = SessionStore(str(tmp_path))
        s = _session()
        store.accept(s, 1, b"alpha")
        store.accept(s, 2, b"beta")
        assert s.durable_seq == 0 and s.dirty
        store.checkpoint(s)
        assert s.durable_seq == 2 and not s.dirty
        assert store.read_log_batches("j1", 0) == [(1, b"alpha"), (2, b"beta")]
        meta = store.read_meta("j1", 0)
        assert meta["acked_seq"] == 2
        assert meta["workload"] == "ep"

    def test_incremental_appends_accumulate(self, tmp_path):
        store = SessionStore(str(tmp_path))
        s = _session()
        store.accept(s, 1, b"a")
        store.checkpoint(s)
        store.accept(s, 2, b"b")
        store.accept(s, 3, b"c")
        store.checkpoint(s)
        assert [seq for seq, _ in store.read_log_batches("j1", 0)] == [1, 2, 3]

    def test_torn_log_tail_salvages_prefix(self, tmp_path):
        store = SessionStore(str(tmp_path))
        s = _session()
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
        s = _session()
        assert store.accept(s, 1, b"one")
        assert store.read_log_batches("j1", 0) == [(1, b"one")]
        size = os.path.getsize(store.log_path("j1", 0))
        assert not store.accept(s, 1, b"one")
        with pytest.raises(ValueError, match="out-of-order"):
            store.accept(s, 3, b"three")
        assert os.path.getsize(store.log_path("j1", 0)) == size
        assert s.acked_seq == 1

    def test_batch_one_starts_the_log_afresh(self, tmp_path):
        # A session restarted from batch 1 (its meta never landed)
        # overwrites the stale log instead of appending behind it.
        store = SessionStore(str(tmp_path))
        s = _session()
        store.accept(s, 1, b"old")
        store.accept(s, 2, b"old2")
        s = _session()
        store.accept(s, 1, b"new")
        assert store.read_log_batches("j1", 0) == [(1, b"new")]


class TestMetaSlots:
    def test_generations_alternate_slots(self, tmp_path):
        store = SessionStore(str(tmp_path))
        s = _session()
        store.accept(s, 1, b"a")
        store.checkpoint(s)  # generation 1 -> slot a
        store.accept(s, 2, b"b")
        store.checkpoint(s)  # generation 2 -> slot b
        slot_a, slot_b = store.meta_paths("j1", 0)
        assert os.path.exists(slot_a) and os.path.exists(slot_b)
        assert store.read_meta("j1", 0)["generation"] == 2

    def test_corrupt_newest_slot_falls_back_one_generation(self, tmp_path):
        store = SessionStore(str(tmp_path))
        s = _session()
        store.accept(s, 1, b"a")
        store.checkpoint(s)
        store.accept(s, 2, b"b")
        store.checkpoint(s)  # newest = generation 2 in slot b
        _slot_a, slot_b = store.meta_paths("j1", 0)
        data = open(slot_b, "rb").read()
        with open(slot_b, "wb") as fh:
            fh.write(data[: len(data) // 2])  # torn meta write
        meta = store.read_meta("j1", 0)
        assert meta["generation"] == 1
        assert meta["acked_seq"] == 1

    def test_both_slots_gone_means_no_meta(self, tmp_path):
        store = SessionStore(str(tmp_path))
        assert store.read_meta("j1", 0) is None


class TestRecovery:
    def test_load_all_discovers_sessions(self, tmp_path):
        store = SessionStore(str(tmp_path))
        for rank in (0, 1):
            s = _session(rank=rank)
            store.accept(s, 1, b"x")
            store.checkpoint(s)
        recs = store.load_all()
        assert [(r.job, r.rank) for r in recs] == [("j1", 0), ("j1", 1)]
        state = recs[0].to_state()
        assert state.acked_seq == state.durable_seq == 1

    def test_eos_forgotten_when_tail_batches_lost(self, tmp_path):
        # Meta checkpointed with EOS, then the log tail tore: the EOS
        # outlived its batches, so recovery must drop the EOS mark and
        # let the client re-send from the durable point.
        store = SessionStore(str(tmp_path))
        s = _session()
        store.accept(s, 1, b"one")
        store.accept(s, 2, b"two")
        s.eos_seq = 2
        store.checkpoint(s)
        path = store.log_path("j1", 0)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-4])
        rec = store.load_all()[0]
        state = rec.to_state()
        assert state.durable_seq == 1
        assert state.eos_seq is None
        assert not state.finalized

    def test_torn_tail_is_cut_off_at_recovery(self, tmp_path):
        # Batches appended after a torn tail used to land behind the
        # garbage, where the prefix scan never reaches them: the meta
        # said 4 while every later recovery found [1, 2].
        store = SessionStore(str(tmp_path))
        s = _session()
        for i, blob in enumerate((b"one", b"two", b"three"), start=1):
            store.accept(s, i, blob)
        store.checkpoint(s)
        path = store.log_path("j1", 0)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-4])
        s = store.load_all()[0].to_state()
        assert s.acked_seq == 2
        store.accept(s, 3, b"three")
        store.accept(s, 4, b"four")
        store.checkpoint(s)
        assert store.read_meta("j1", 0)["acked_seq"] == 4
        (rec,) = store.load_all()
        assert rec.batches == [
            (1, b"one"), (2, b"two"), (3, b"three"), (4, b"four"),
        ]

    def test_log_without_meta_is_dropped(self, tmp_path):
        store = SessionStore(str(tmp_path))
        s = _session()
        store.accept(s, 1, b"x")  # log only, no meta
        assert store.load_all() == []

    def test_remove_clears_every_file(self, tmp_path):
        store = SessionStore(str(tmp_path))
        s = _session()
        store.accept(s, 1, b"x")
        store.checkpoint(s)
        store.remove("j1", 0)
        assert store.discover() == []

    def test_quarantine_survives_meta_roundtrip(self, tmp_path):
        from repro.core.quarantine import QuarantinedRank

        store = SessionStore(str(tmp_path))
        s = _session()
        s.quarantined = QuarantinedRank(
            rank=0, stage="server", error="idle timeout after 1s", events=0
        )
        store.checkpoint(s)
        state = store.load_all()[0].to_state()
        assert state.quarantined is not None
        assert state.quarantined.stage == "server"
        assert "idle timeout" in state.quarantined.error


class TestRecoveredSession:
    def test_to_state_empty_batches(self):
        rec = RecoveredSession(
            job="j", rank=1,
            meta={"nranks": 4, "workload": "ep", "scale": 1.0,
                  "acked_seq": 0, "eos_seq": None, "generation": 3,
                  "quarantined": None},
            batches=[],
        )
        state = rec.to_state()
        assert state.acked_seq == 0 and state.durable_seq == 0
        assert state.generation == 3
