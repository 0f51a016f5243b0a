"""Rank quarantine: lenient vs strict compression, survivor merges,
raw-capture replay, and the QuarantineReport."""

import json

import pytest

from repro.core import (
    MergeError,
    StreamMismatchError,
    run_cypress,
    serialize,
)
from repro.core.inter import merge_all
from repro.core.quarantine import QuarantinedRank, QuarantineReport
from repro.faults import CORRUPT_KINDS, FaultPlan

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
NPROCS = 4


def _corrupted_run(victims=(1,), kind="unbalanced", **kw):
    plan = FaultPlan(seed=9, corrupt_ranks=victims, corrupt_kind=kind)
    return run_cypress(SRC, NPROCS, fault_plan=plan, **kw)


class TestLenientMode:
    @pytest.mark.parametrize("kind", CORRUPT_KINDS + ("mixed",))
    def test_every_corruption_kind_quarantines(self, kind):
        run = _corrupted_run(kind=kind)
        assert run.quarantine.ranks() == [1]

    def test_named_victims_exactly(self):
        run = _corrupted_run(victims=(0, 3))
        assert run.quarantine.ranks() == [0, 3]
        assert run.quarantine.rank_set() == frozenset({0, 3})

    def test_survivor_merge_matches_healthy_subset(self):
        """Quarantining rank 1 must leave the other ranks' bytes exactly
        as a healthy run would merge them."""
        healthy = run_cypress(SRC, NPROCS)
        expect = merge_all(
            [healthy.compressor.ctt(r) for r in range(NPROCS) if r != 1]
        )
        run = _corrupted_run()
        merged = run.merge()
        assert merged.nranks_merged == NPROCS - 1
        assert serialize.dumps(merged) == serialize.dumps(expect)

    def test_healthy_ranks_replay_exactly(self):
        healthy = run_cypress(SRC, NPROCS)
        run = _corrupted_run()
        for rank in (0, 2, 3):
            got = [e.call_tuple() for e in run.replay(rank)]
            want = [e.call_tuple() for e in healthy.replay(rank)]
            assert got == want, f"rank {rank} diverged"

    def test_quarantined_rank_replays_from_raw_capture(self):
        # 'unbalanced' inserts a marker without touching events, so the
        # raw fallback must reproduce the victim's true call sequence.
        healthy = run_cypress(SRC, NPROCS)
        run = _corrupted_run(victims=(1,), kind="unbalanced")
        got = [e.call_tuple() for e in run.replay(1)]
        want = [e.call_tuple() for e in healthy.replay(1)]
        assert got == want

    def test_all_ranks_quarantined_merge_raises(self):
        run = _corrupted_run(victims=tuple(range(NPROCS)))
        assert len(run.quarantine) == NPROCS
        with pytest.raises(MergeError, match="every rank was quarantined"):
            run.merge()

    def test_fault_counter_published(self):
        from repro import obs

        registry = obs.enable()
        try:
            _corrupted_run()
        finally:
            obs.disable()
        assert registry.counters.get("faults.quarantined_ranks") == 1


class TestStrictMode:
    def test_strict_raises(self):
        with pytest.raises(StreamMismatchError):
            _corrupted_run(strict=True)

    def test_strict_healthy_run_unaffected(self):
        run = run_cypress(SRC, NPROCS, strict=True)
        assert not run.quarantine
        assert run.merge().nranks_merged == NPROCS


class TestQuarantineReport:
    def test_item_fields(self):
        item = _corrupted_run().quarantine.get(1)
        assert item is not None
        assert item.stage == "intra"
        assert item.error
        assert item.events > 0
        assert item.raw_stream is not None
        assert len(item.raw_events()) == item.events

    def test_json_roundtrip(self):
        report = _corrupted_run(victims=(1, 2)).quarantine
        data = json.loads(report.to_json())
        assert data["quarantined_ranks"] == 2
        assert [i["rank"] for i in data["items"]] == [1, 2]
        assert all(i["raw_captured"] for i in data["items"])

    def test_from_json_full_roundtrip(self):
        # Satellite: the report must survive a to_json -> from_json trip
        # intact (the server persists quarantine state this way across
        # daemon restarts).  The raw stream is in-memory only, so the
        # round-tripped items carry raw_stream=None by contract.
        report = _corrupted_run(victims=(1, 3)).quarantine
        again = QuarantineReport.from_json(report.to_json())
        assert again.ranks() == report.ranks() == [1, 3]
        assert bool(again) and len(again) == 2
        for orig, back in zip(report, again):
            assert back.rank == orig.rank
            assert back.stage == orig.stage
            assert back.error == orig.error
            assert back.events == orig.events
            assert back.raw_stream is None
        # A second trip is byte-stable except the raw_captured flag,
        # which records the (now dropped) in-memory stream.
        twice = QuarantineReport.from_json(again.to_json())
        assert twice.to_json() == again.to_json()

    def test_from_json_empty_report(self):
        again = QuarantineReport.from_json(QuarantineReport().to_json())
        assert not again and again.ranks() == []

    def test_summary(self):
        assert QuarantineReport().summary() == "no ranks quarantined"
        report = QuarantineReport([
            QuarantinedRank(rank=3, stage="intra", error="x", events=0),
        ])
        assert "rank(s) quarantined: 3" in report.summary()

    def test_add_keeps_rank_order_and_absorb(self):
        a = QuarantineReport()
        a.add(QuarantinedRank(rank=5, stage="intra", error="e", events=0))
        a.add(QuarantinedRank(rank=2, stage="intra", error="e", events=0))
        b = QuarantineReport([
            QuarantinedRank(rank=4, stage="intra", error="e", events=0),
        ])
        a.absorb(b)
        assert a.ranks() == [2, 4, 5]
        assert a.get(9) is None
