"""Seeded fault matrix: every corruption kind must be *detected* — the
negative proof that the checkers are not vacuously green."""

import sys

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

import pytest  # noqa: E402

from repro.core.inter import merge_all  # noqa: E402
from repro.faults import PAYLOAD_KINDS, FaultPlan, corrupt_merged  # noqa: E402
from repro.verify import check_merged  # noqa: E402
from repro.verify.faultmatrix import (  # noqa: E402
    EXPECTED_CODES,
    run_fault_matrix,
)
from repro.workloads import WORKLOADS  # noqa: E402

NPROCS = 4


@pytest.fixture(scope="module")
def matrix():
    w = WORKLOADS["cg"]
    return run_fault_matrix(
        w.source, NPROCS, w.defines(NPROCS, 0.3), workload="cg"
    )


class TestMatrix:
    def test_every_kind_detected(self, matrix):
        missed = [e.kind for e in matrix.entries if not e.detected]
        assert matrix.ok, f"undetected corruption kinds: {missed}"
        # cg's trace shape has a site for every kind: nothing skipped.
        assert not any(e.skipped for e in matrix.entries)
        kinds = {e.kind for e in matrix.entries}
        assert set(PAYLOAD_KINDS) <= kinds
        assert {k for k in kinds if k.startswith("stream:")}
        containers = {
            e.kind: e for e in matrix.entries if e.kind.startswith("container:")
        }
        assert set(containers) == {"container:truncate", "container:bitflip"}
        assert all(e.detected for e in containers.values())

    def test_inapplicable_kind_skips_not_fails(self):
        # dt at n=5 is too small for a multi-occurrence record:
        # occ-overlap has no site, which must not fail the matrix.
        w = WORKLOADS["dt"]
        report = run_fault_matrix(
            w.source, 5, w.defines(5, 0.3), workload="dt"
        )
        assert report.ok
        skipped = [e for e in report.entries if e.skipped]
        assert skipped and not any(e.detected for e in skipped)

    def test_payload_entries_carry_namesake_codes(self, matrix):
        for entry in matrix.entries:
            if entry.kind in EXPECTED_CODES:
                assert EXPECTED_CODES[entry.kind] & set(entry.codes), entry

    def test_report_serializes(self, matrix):
        d = matrix.to_dict()
        assert d["ok"] is True
        assert len(d["entries"]) == len(PAYLOAD_KINDS) + 5

    def test_same_seed_is_reproducible(self, matrix):
        w = WORKLOADS["cg"]
        again = run_fault_matrix(
            w.source, NPROCS, w.defines(NPROCS, 0.3), workload="cg"
        )
        assert [e.description for e in again.entries] == [
            e.description for e in matrix.entries
        ]


class TestCorruptMerged:
    def test_each_kind_trips_its_invariant(self):
        w = WORKLOADS["cg"]
        _c, _r, comp, _res = run_traced(
            w.source, NPROCS, defines=w.defines(NPROCS, 0.3)
        )
        ctts = [comp.ctt(r) for r in range(NPROCS)]
        plan = FaultPlan(seed=7)
        for kind in PAYLOAD_KINDS:
            merged = merge_all(ctts, nranks=NPROCS)
            assert check_merged(merged, nranks=NPROCS) == []
            corrupt_merged(merged, kind, plan.rng("t", kind), nranks=NPROCS)
            codes = {v.code for v in check_merged(merged, nranks=NPROCS)}
            assert codes & EXPECTED_CODES[kind], (kind, codes)

    def test_unknown_kind_raises(self):
        w = WORKLOADS["cg"]
        _c, _r, comp, _res = run_traced(
            w.source, NPROCS, defines=w.defines(NPROCS, 0.3)
        )
        merged = merge_all(
            [comp.ctt(r) for r in range(NPROCS)], nranks=NPROCS
        )
        with pytest.raises(ValueError, match="unknown"):
            corrupt_merged(merged, "no-such-kind", FaultPlan(seed=1).rng("x"))
