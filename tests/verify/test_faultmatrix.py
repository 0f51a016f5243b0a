"""Seeded fault matrix: every corruption kind must be *detected* — the
negative proof that the checkers are not vacuously green."""

import sys

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

import pytest  # noqa: E402

from repro.core.inter import merge_all  # noqa: E402
from repro.core.intra import compress_streams  # noqa: E402
from repro.driver import capture_run  # noqa: E402
from repro.faults import PAYLOAD_KINDS, FaultPlan, corrupt_merged  # noqa: E402
from repro.verify import check_merged  # noqa: E402
from repro.verify.faultmatrix import (  # noqa: E402
    EXPECTED_CODES,
    run_fault_matrix,
)
from repro.workloads import WORKLOADS  # noqa: E402

NPROCS = 4


def _matrix(name, nprocs, scale=0.3):
    w = WORKLOADS[name]
    run = capture_run(w.source, nprocs, w.defines(nprocs, scale))
    compressor = compress_streams(run.compiled.cst, run.streams)
    return run_fault_matrix(run, compressor, workload=name)


@pytest.fixture(scope="module")
def matrix():
    return _matrix("cg", NPROCS)


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
        report = _matrix("dt", 5)
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
        again = _matrix("cg", NPROCS)
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


@pytest.mark.parametrize("name", ["farm", "sp"])
def test_damage_stays_in_the_merged_tree(name):
    # A lone rank's group borrows that rank's record list: corrupting
    # the merged tree must not reach the CTTs it was merged from.
    from repro.core import serialize
    from repro.verify import check_ctt

    w = WORKLOADS[name]
    run = capture_run(w.source, NPROCS, w.defines(NPROCS, 0.3))
    comp = compress_streams(run.compiled.cst, run.streams)
    ctts = [comp.ctt(r) for r in range(NPROCS)]
    clean = serialize.dumps(merge_all(ctts, nranks=NPROCS))
    plan = FaultPlan(seed=20260807)
    for kind in PAYLOAD_KINDS:
        try:
            corrupt_merged(
                merge_all(ctts, nranks=NPROCS), kind,
                plan.rng("payload", kind), nranks=NPROCS,
            )
        except ValueError:  # no site for this kind in this shape
            continue
        for ctt in ctts:
            assert check_ctt(ctt, nranks=NPROCS) == [], (kind, ctt.rank)
        again = serialize.dumps(merge_all(ctts, nranks=NPROCS))
        assert again == clean, kind
