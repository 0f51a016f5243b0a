"""Rank quarantine: a capture compressed through ``compress_streams``
quarantines mismatching ranks, a bare ``ingest_stream`` raises, the
survivors merge and replay unchanged, and the QuarantineReport."""

import json

import pytest

from repro.core import (
    MergeError,
    StreamMismatchError,
    decompress_merged_rank,
    serialize,
)
from repro.core.inter import merge_all
from repro.core.intra import IntraProcessCompressor, compress_streams
from repro.core.quarantine import QuarantinedRank, QuarantineReport
from repro.driver import capture_run, run_compiled
from repro.mpisim.pmpi import OP_EVENT, OP_LOOP_POP, StreamCaptureSink
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS
from tests.faults.plan import CORRUPT_KINDS, FaultPlan
from tests.faults.streams import corrupt_stream

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
COMPILED = compile_minimpi(SRC)


def _capture() -> dict[int, list]:
    capture = StreamCaptureSink()
    run_compiled(COMPILED, NPROCS, tracer=capture)
    return capture.streams


def _corrupted(victims=(1,), kind="unbalanced") -> dict[int, list]:
    plan = FaultPlan(seed=9)
    streams = dict(_capture())
    for rank in victims:
        streams[rank] = corrupt_stream(
            streams[rank], kind, plan.rng("stream", rank)
        )
    return streams


def _compressed(victims=(1,), kind="unbalanced"):
    return compress_streams(
        COMPILED.cst, _corrupted(victims, kind), nranks=NPROCS
    )


def _healthy():
    return compress_streams(COMPILED.cst, _capture(), nranks=NPROCS)


class TestLenientMode:
    @pytest.mark.parametrize("kind", CORRUPT_KINDS + ("mixed",))
    def test_every_corruption_kind_quarantines(self, kind):
        comp = _compressed(kind=kind)
        assert comp.quarantine.ranks() == [1]

    def test_named_victims_exactly(self):
        comp = _compressed(victims=(0, 3))
        assert comp.quarantine.ranks() == [0, 3]
        assert comp.quarantine.rank_set() == frozenset({0, 3})

    def test_survivor_merge_matches_healthy_subset(self):
        """Quarantining rank 1 must leave the other ranks' bytes exactly
        as a healthy run would merge them."""
        healthy = _healthy()
        expect = merge_all(
            [healthy.ctt(r) for r in range(NPROCS) if r != 1]
        )
        merged = _compressed().merged(nranks=NPROCS)
        assert merged.nranks_merged == NPROCS - 1
        assert serialize.dumps(merged) == serialize.dumps(expect)

    def test_healthy_ranks_replay_exactly(self):
        want_tree = _healthy().merged(nranks=NPROCS)
        got_tree = _compressed().merged(nranks=NPROCS)
        for rank in (0, 2, 3):
            got = [e.call_tuple() for e in decompress_merged_rank(got_tree, rank)]
            want = [
                e.call_tuple() for e in decompress_merged_rank(want_tree, rank)
            ]
            assert got == want, f"rank {rank} diverged"

    def test_quarantined_rank_counts_its_recorded_events(self):
        # 'unbalanced' inserts a marker without touching events, so the
        # victim's count is its recorded events.
        recorded = [
            item[1] for item in _capture()[1] if item[0] == OP_EVENT
        ]
        item = _compressed(victims=(1,), kind="unbalanced").quarantine.get(1)
        assert item.events == len(recorded)

    def test_quarantined_rank_does_not_come_back_empty(self):
        """Naming a discarded rank raises; it is not merged as an empty
        tree in its own place.  A rank never seen still reads empty."""
        w = WORKLOADS["fig11"]
        run = capture_run(w.source, 4, w.defines(4, 1.0))
        streams = {**run.streams, 2: [(OP_LOOP_POP, 12345), *run.streams[2]]}
        comp = compress_streams(run.compiled.cst, streams, nranks=4)
        assert comp.quarantine.ranks() == [2]
        with pytest.raises(StreamMismatchError, match="rank 2 "):
            comp.merged(nranks=4, ranks=range(4))
        with pytest.raises(StreamMismatchError, match="rank 2 "):
            comp.ctt(2)
        assert comp.ranks() == [0, 1, 3]
        assert comp.merged(nranks=4).nranks_merged == 3
        assert comp.ctt(4).record_count() == 0

    def test_all_ranks_quarantined_merge_raises(self):
        comp = _compressed(victims=tuple(range(NPROCS)))
        assert len(comp.quarantine) == NPROCS
        with pytest.raises(MergeError, match="no ranks to merge"):
            comp.merged(nranks=NPROCS)

    def test_fault_counter_published(self):
        from repro import obs

        registry = obs.enable()
        try:
            _compressed()
        finally:
            obs.disable()
        assert registry.counters.get("faults.quarantined_ranks") == 1


class TestStrictMode:
    def test_strict_raises(self):
        stream = _corrupted()[1]
        with pytest.raises(StreamMismatchError):
            IntraProcessCompressor(COMPILED.cst).ingest_stream(1, stream)

    def test_strict_healthy_run_unaffected(self):
        comp = IntraProcessCompressor(COMPILED.cst)
        for rank, stream in sorted(_capture().items()):
            comp.ingest_stream(rank, stream)
        assert not comp.quarantine
        assert comp.merged(nranks=NPROCS).nranks_merged == NPROCS


class TestQuarantineReport:
    def test_item_fields(self):
        item = _compressed().quarantine.get(1)
        assert item is not None
        assert item.stage == "intra"
        assert item.error
        assert item.events > 0

    def test_json_roundtrip(self):
        report = _compressed(victims=(1, 2)).quarantine
        data = json.loads(report.to_json())
        assert data["quarantined_ranks"] == 2
        assert [i["rank"] for i in data["items"]] == [1, 2]
        assert all(
            set(i) == {"rank", "stage", "error", "events"}
            for i in data["items"]
        )

    def test_from_json_full_roundtrip(self):
        # The report must survive a to_json -> from_json trip intact
        # (the server persists quarantine state this way across daemon
        # restarts).
        report = _compressed(victims=(1, 3)).quarantine
        again = QuarantineReport.from_json(report.to_json())
        assert again.ranks() == report.ranks() == [1, 3]
        assert bool(again) and len(again) == 2
        for orig, back in zip(report, again):
            assert back.rank == orig.rank
            assert back.stage == orig.stage
            assert back.error == orig.error
            assert back.events == orig.events
        assert again.to_json() == report.to_json()
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

    def test_add_keeps_rank_order(self):
        a = QuarantineReport()
        for rank in (5, 2, 4):
            a.add(QuarantinedRank(rank=rank, stage="intra", error="e",
                                  events=0))
        assert a.ranks() == [2, 4, 5]
        assert a.get(9) is None
