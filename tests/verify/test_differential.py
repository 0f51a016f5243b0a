"""Differential harness (``tests/verify/check.py``): every variant
agrees on healthy workloads, and divergences localize to the first
differing event."""

import sys

sys.path.insert(0, "tests")

from helpers import capture_with_truth, first_divergence  # noqa: E402

from repro.core.intra import compress_streams  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402
from tests.verify.check import differential  # noqa: E402


def _differential(name, nprocs, scale=0.3):
    w = WORKLOADS[name]
    run, recorder = capture_with_truth(
        w.source, nprocs, w.defines(nprocs, scale))
    deferred = compress_streams(run.compiled.cst, run.streams)
    return differential(run, recorder, deferred)


class TestFirstDivergence:
    def test_equal_sequences_return_none(self):
        assert first_divergence([(1,), (2,)], [(1,), (2,)]) is None

    def test_mismatch_localizes_index(self):
        div = first_divergence([(1,), (9,)], [(1,), (2,)])
        assert div == (
            "first divergence at event 1: (9,) != (2,) (2 vs 2 events)")

    def test_length_mismatch_reports_missing_side(self):
        div = first_divergence([(1,)], [(1,), (2,)])
        assert div == (
            "first divergence at event 1: <end> != (2,) (1 vs 2 events)")


class TestDifferentialCheck:
    def test_cg_all_variants_agree(self):
        report = _differential("cg", 4)
        assert report["ok"], report["divergences"]
        assert report["events"] > 0
        assert sorted(report["variants"]) == [
            "budgeted", "deferred", "inline", "packed",
        ]
        assert report["divergences"] == []

    def test_wildcard_workload_agrees_too(self):
        # The farm's wildcard records stress the pending-resolution
        # paths in every compression variant.
        report = _differential("farm", 4)
        assert report["ok"], report["divergences"]


def _named(report):
    """The variants a report's divergences name."""
    return {d.split(" ", 1)[0].removeprefix("bytes:")
            for d in report["divergences"]}


class TestPlantedDivergence:
    def test_damaging_packed_encoder_is_named(self, monkeypatch):
        # An encoder that changes the tag of rank 2's sixth event must
        # make exactly the packed variant diverge, at that rank and
        # event index.  (A dropped event does not replay at all: the
        # next test.)
        from dataclasses import replace

        from repro.core import packed

        victim, index = 2, 5
        encode = packed.encode_stream

        def damaging(stream):
            return encode([
                (code, replace(item[0], tag=item[0].tag + 1))
                if code == packed.OP_EVENT
                and item[0].rank == victim and item[0].seq == index
                else (code, *item)
                for code, *item in stream
            ])

        monkeypatch.setattr(packed, "encode_stream", damaging)
        report = _differential("cg", 4)
        assert not report["ok"]
        assert _named(report) == {"packed"}, report["divergences"]
        first = report["divergences"][0]
        assert first.startswith(
            f"packed vs truth, rank {victim}: first divergence at event "
            f"{index}: "
        ), first

    def test_dropping_packed_encoder_is_named(self, monkeypatch):
        # An encoder that drops rank 2's sixth event leaves a hole in
        # its leaf's visit schedule: the packed variant's replay of rank
        # 2 raises, and the report names the variant, the rank and the
        # replay's error.
        from repro.core import packed

        victim, index = 2, 5
        encode = packed.encode_stream

        def dropping(stream):
            return encode([
                item for item in stream
                if not (item[0] == packed.OP_EVENT
                        and item[1].rank == victim and item[1].seq == index)
            ])

        monkeypatch.setattr(packed, "encode_stream", dropping)
        report = _differential("cg", 4)
        assert not report["ok"]
        assert _named(report) == {"packed"}, report["divergences"]
        first = report["divergences"][0]
        assert first.startswith(
            f"packed vs truth, rank {victim}: replay raised: "), first
        assert "(MPI_Isend) has no record for visit" in first
