"""Differential harness: every variant agrees on healthy workloads, and
divergences localize to the first differing event."""

import sys

sys.path.insert(0, "tests")

from repro.verify import differential_check  # noqa: E402
from repro.verify.differential import first_divergence  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402


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
        w = WORKLOADS["cg"]
        report = differential_check(
            w.source, 4, w.defines(4, 0.3), workload="cg"
        )
        assert report.ok, [d.format() for d in report.divergences]
        assert report.events > 0
        assert sorted(report.variants) == [
            "budgeted", "fastpath", "inline", "packed",
            "reference",
        ]
        d = report.to_dict()
        assert d["ok"] is True and d["divergences"] == []

    def test_wildcard_workload_agrees_too(self):
        # The farm's wildcard records stress the pending-resolution
        # paths in every compression variant.
        w = WORKLOADS["farm"]
        report = differential_check(
            w.source, 4, w.defines(4, 0.3), workload="farm",
        )
        assert report.ok, [d.format() for d in report.divergences]
