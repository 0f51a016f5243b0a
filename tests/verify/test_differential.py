"""Differential harness: every variant agrees on healthy workloads, and
divergences localize to the first differing event."""

import sys

sys.path.insert(0, "tests")

from repro.core.intra import compress_streams  # noqa: E402
from repro.driver import capture_run  # noqa: E402
from repro.verify import differential_check  # noqa: E402
from repro.verify.differential import first_divergence  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402


def _differential(name, nprocs, scale=0.3):
    w = WORKLOADS[name]
    run = capture_run(w.source, nprocs, w.defines(nprocs, scale), truth=True)
    deferred = compress_streams(run.compiled.cst, run.streams)
    return differential_check(run, deferred, workload=name)


class TestFirstDivergence:
    def test_equal_sequences_return_none(self):
        assert first_divergence("a", "b", 0, [(1,), (2,)], [(1,), (2,)]) is None

    def test_mismatch_localizes_index(self):
        div = first_divergence("a", "truth", 3, [(1,), (9,)], [(1,), (2,)])
        assert (div.rank, div.index) == (3, 1)
        assert div.left_event == (9,) and div.right_event == (2,)
        assert "rank 3" in div.format()

    def test_length_mismatch_reports_missing_side(self):
        div = first_divergence("a", "b", 0, [(1,)], [(1,), (2,)])
        assert div.index == 1
        assert div.left_event is None and div.right_event == (2,)


class TestDifferentialCheck:
    def test_cg_all_variants_agree(self):
        report = _differential("cg", 4)
        assert report.ok, [d.format() for d in report.divergences]
        assert report.events > 0
        assert sorted(report.variants) == [
            "budgeted", "deferred", "inline", "packed",
        ]
        d = report.to_dict()
        assert d["ok"] is True and d["divergences"] == []

    def test_wildcard_workload_agrees_too(self):
        # The farm's wildcard records stress the pending-resolution
        # paths in every compression variant.
        report = _differential("farm", 4)
        assert report.ok, [d.format() for d in report.divergences]


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
        assert not report.ok
        named = {d.left.removeprefix("bytes:") for d in report.divergences}
        assert named == {"packed"}, [d.format() for d in report.divergences]
        first = report.divergences[0]
        assert (first.left, first.right) == ("packed", "truth")
        assert (first.rank, first.index) == (victim, index)
        assert first.left_event[3] == first.right_event[3] + 1  # the tag

    def test_dropping_packed_encoder_is_named(self, monkeypatch):
        # An encoder that drops rank 2's sixth event leaves a hole in
        # its leaf's visit schedule: the packed variant's replay of rank
        # 2 raises, and the report names the variant, the rank, the
        # event the replay could not produce, and the replay's error.
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
        assert not report.ok
        named = {d.left.removeprefix("bytes:") for d in report.divergences}
        assert named == {"packed"}, [d.format() for d in report.divergences]
        first = report.divergences[0]
        assert (first.left, first.right, first.rank) == ("packed", "truth", victim)
        # The hole is found where the leaf runs out of records, past the
        # dropped event; the report points at the event truth has there.
        assert first.index > index
        assert first.left_event is None
        assert first.right_event[0] == "MPI_Isend"
        assert "(MPI_Isend) has no record for visit" in first.error
        assert f"replay raised at event {first.index}" in first.format()
