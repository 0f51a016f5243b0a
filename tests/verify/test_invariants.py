"""Structural invariant checkers: clean on healthy traces, loud on
hand-corrupted ones (docs/INTERNALS.md §8)."""

import pathlib
import random
import sys

import pytest

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro import obs  # noqa: E402
from repro.core import serialize  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402
from repro.core.ranks import REL  # noqa: E402
from repro.core.sequences import IntSequence  # noqa: E402
from repro.static.cst import CALL, LOOP  # noqa: E402
from repro.verify import (  # noqa: E402
    check_cst,
    check_ctt,
    check_merged,
    publish_verify_metrics,
)
from tests.faults.payload import corrupt_merged  # noqa: E402
from tests.record_fields import occurrences, set_occurrences  # noqa: E402

RING = """
func main() {
  for (var i = 0; i < 4; i = i + 1) {
    if (mpi_comm_rank() < mpi_comm_size() - 1) {
      mpi_send(mpi_comm_rank() + 1, 64, 7);
    }
    if (mpi_comm_rank() > 0) {
      mpi_recv(mpi_comm_rank() - 1, 64, 7);
    }
  }
  mpi_barrier();
}
"""

NPROCS = 4
DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def _codes(violations):
    return {v.code for v in violations}


def _rel_leaf(ctt, op="MPI_Send"):
    for vertex in ctt.vertices():
        for record in vertex.records or []:
            if record.key is not None and record.key[0] == op:
                if record.key[1][0] == REL:
                    return vertex, record
    raise AssertionError(f"no REL {op} record")


class TestHealthy:
    def test_ring_is_clean_everywhere(self):
        compiled, _rec, comp, _res = run_traced(RING, NPROCS)
        assert check_cst(compiled.cst) == []
        ctts = [comp.ctt(r) for r in range(NPROCS)]
        for ctt in ctts:
            assert check_ctt(ctt, nranks=NPROCS) == []
        merged = merge_all(ctts, nranks=NPROCS)
        assert check_merged(merged, nranks=NPROCS) == []


class TestCST:
    def test_duplicate_gid(self):
        compiled, *_ = run_traced(RING, NPROCS)
        nodes = [n for n, _p in compiled.cst.preorder_with_parent()]
        nodes[-1].gid = nodes[1].gid
        codes = _codes(check_cst(compiled.cst))
        assert "gid-duplicate" in codes
        assert "gid-not-preorder" in codes

    def test_call_with_children(self):
        compiled, *_ = run_traced(RING, NPROCS)
        nodes = [n for n, _p in compiled.cst.preorder_with_parent()]
        leaf = next(n for n in nodes if n.kind == CALL)
        other = next(n for n in nodes if n.kind == CALL and n is not leaf)
        leaf.children.append(other)
        try:
            codes = _codes(check_cst(compiled.cst))
        finally:
            leaf.children.clear()
        assert "call-with-children" in codes

    def test_bad_branch_path(self):
        compiled, *_ = run_traced(RING, NPROCS)
        branch = next(
            n for n, _p in compiled.cst.preorder_with_parent()
            if n.branch_path is not None
        )
        branch.branch_path = 3
        assert "branch-bad-path" in _codes(check_cst(compiled.cst))


class TestCTT:
    def test_out_of_range_rel_peer(self):
        _c, _r, comp, _res = run_traced(RING, NPROCS)
        ctt = comp.ctt(0)
        _vertex, record = _rel_leaf(ctt)
        key = list(record.key)
        key[1] = (REL, NPROCS + 3)
        record.key = tuple(key)
        violations = check_ctt(ctt, nranks=NPROCS)
        assert "peer-range" in _codes(violations)
        # Without nranks the delta cannot be range-checked upward, and
        # a positive delta from rank 0 never goes negative: lenient.
        assert "peer-range" not in _codes(check_ctt(ctt))

    def test_occurrence_overlap(self):
        _c, _r, comp, _res = run_traced(RING, NPROCS)
        ctt = comp.ctt(1)
        _vertex, record = _rel_leaf(ctt, op="MPI_Recv")
        values = occurrences(record).to_list()
        assert len(values) >= 2
        values[-1] = values[0]
        set_occurrences(record, IntSequence.from_values(sorted(values)))
        codes = _codes(check_ctt(ctt, nranks=NPROCS))
        assert codes & {"occ-overlap", "occ-regress", "occ-count"}

    def test_occurrence_hole(self):
        _c, _r, comp, _res = run_traced(RING, NPROCS)
        ctt = comp.ctt(1)
        _vertex, record = _rel_leaf(ctt, op="MPI_Recv")
        values = occurrences(record).to_list()
        set_occurrences(record, IntSequence.from_values(values[1:]))
        assert "occ-count" in _codes(check_ctt(ctt, nranks=NPROCS))

    def test_loop_arity_breaks_when_count_dropped(self):
        _c, _r, comp, _res = run_traced(RING, NPROCS)
        ctt = comp.ctt(0)
        loop = next(
            v for v in ctt.vertices()
            if v.loop_counts is not None and len(v.loop_counts)
        )
        values = loop.loop_counts.to_list()
        values[-1] = -2
        loop.loop_counts = IntSequence.from_values(values)
        codes = _codes(check_ctt(ctt, nranks=NPROCS))
        assert "loop-negative" in codes


def _point_req_gid_off_the_calls(records, tree):
    """Replace the first record of ``records`` with a copy whose
    ``req_gids`` name a LOOP vertex of ``tree``; returns that gid."""
    loop_gid = next(v.gid for v in tree.vertices() if v.kind == LOOP)
    bad = records[0].copy()
    key = list(bad.key)
    key[10] = (loop_gid,)
    bad.key = tuple(key)
    records[0] = bad
    return loop_gid


class TestReqGid:
    def test_ctt_req_gid_off_a_call(self):
        _c, _r, comp, _res = run_traced(RING, NPROCS)
        ctt = comp.ctt(1)
        leaf, _record = _rel_leaf(ctt, op="MPI_Recv")
        gid = _point_req_gid_off_the_calls(leaf.records, ctt)
        got = [v for v in check_ctt(ctt, nranks=NPROCS) if v.code == "req-gid"]
        assert [(v.gid, v.rank, v.detail) for v in got] == [
            (leaf.gid, 1, (gid,))
        ]

    def test_merged_req_gid_off_a_call(self):
        _c, _r, comp, _res = run_traced(RING, NPROCS)
        merged = merge_all(
            [comp.ctt(r) for r in range(NPROCS)], nranks=NPROCS
        )
        leaf = next(
            v for v in merged.vertices()
            if v.kind == CALL and v.op == "MPI_Recv"
        )
        group = leaf.sorted_groups()[0]
        records = list(group.records)
        gid = _point_req_gid_off_the_calls(records, merged)
        group._records = records
        got = [
            v for v in check_merged(merged, nranks=NPROCS)
            if v.code == "req-gid"
        ]
        # One violation per rank that reads the group.
        assert [(v.gid, v.rank, v.detail) for v in got] == [
            (leaf.gid, r, (gid,)) for r in group.ranks
        ]


# Rank-dependent message sizes force distinct record signatures, so the
# send leaf merges into one group per rank — multi-group territory.
VARIED = """
func main() {
  if (mpi_comm_rank() > 0) {
    mpi_send(0, mpi_comm_rank() * 64, 7);
  } else {
    for (var i = 1; i < mpi_comm_size(); i = i + 1) {
      mpi_recv(i, i * 64, 7);
    }
  }
  mpi_barrier();
}
"""


class TestMergedDirect:
    def test_rank_overlap_detected(self):
        _c, _r, comp, _res = run_traced(VARIED, NPROCS)
        merged = merge_all(
            [comp.ctt(r) for r in range(NPROCS)], nranks=NPROCS
        )
        assert check_merged(merged, nranks=NPROCS) == []
        vertex = next(v for v in merged.vertices() if len(v.groups) >= 2)
        groups = vertex.sorted_groups()
        groups[1].ranks = sorted(set(groups[1].ranks) | {groups[0].ranks[0]})
        groups[1]._rank_seq = None
        assert "rank-overlap" in _codes(check_merged(merged, nranks=NPROCS))

    # What the checker reported for these faults when its per-rank walk
    # looked groups up through a rank -> group map built at each vertex
    # (the last group listing a rank won).  It now reads the maps its
    # first pass builds, and must report the same, in the same order.
    @pytest.mark.parametrize("golden, kind, seed, want", [
        ("mg", "rank-overlap", 1, [
            ("rank-overlap", 12, 0), ("peer-range", 12, 0),
            ("peer-range", 12, 0), ("peer-range", 12, 0),
            ("peer-range", 12, 0),
        ]),
        ("fig11", "rank-overlap", 1, [
            ("ranks-unsorted", 4, 0), ("rank-overlap", 4, 2),
        ]),
        ("sp", "rank-range", 2, [
            ("rank-range", 2, 11), ("rank-population", -1, -1),
            ("occ-count", 1, 11), ("loop-arity", 3, 11),
            ("occ-count", 13, 11), ("occ-count", 14, 11),
        ]),
        ("fig11", "rank-range", 2, [
            ("rank-range", 1, 11), ("rank-population", -1, -1),
            ("loop-arity", 2, 11), ("occ-count", 8, 11),
        ]),
    ])
    def test_rank_faults_report_what_they_did(self, golden, kind, seed, want):
        blob = (DATA / f"golden_{golden}_v8.cyp").read_bytes()
        merged = serialize.loads(blob)
        nranks = merged.nranks_merged
        corrupt_merged(merged, kind, random.Random(seed), nranks=nranks)
        got = check_merged(merged, nranks=nranks)
        assert [(v.code, v.gid, v.rank) for v in got] == want

    def test_violation_to_dict_roundtrips(self):
        _c, _r, comp, _res = run_traced(RING, NPROCS)
        ctt = comp.ctt(0)
        _vertex, record = _rel_leaf(ctt)
        key = list(record.key)
        key[1] = (REL, NPROCS + 3)
        record.key = tuple(key)
        (v, *_rest) = check_ctt(ctt, nranks=NPROCS)
        d = v.to_dict()
        assert d["code"] == "peer-range"
        assert d["rank"] == 0
        assert d["gid"] == v.gid >= 0


class TestMetrics:
    def test_counters_published_only_when_nonzero(self):
        registry = obs.enable()
        try:
            publish_verify_metrics(
                registry, checks=3, violations=0, findings=2
            )
        finally:
            obs.disable()
        assert registry.counters["verify.checks"] == 3
        assert registry.counters["verify.wildcard_findings"] == 2
        assert "verify.violations" not in registry.counters

    def test_none_registry_is_a_noop(self):
        publish_verify_metrics(None, checks=1, violations=1, findings=1)
