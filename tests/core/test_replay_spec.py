"""``repro.core.decompress`` against the naive reference walker in
``tests/spec_replay.py``: equal event for event on sound traces, a
``DecompressionError`` with its context set on damaged leaves, and the
two structural facts the schedule walker rests on (one event object per
reached (record, rank); no occurrence cursor at a leaf)."""

import sys
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from helpers import run_traced  # noqa: E402
from spec_replay import spec_all, spec_merged_rank, spec_rank  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.decompress import (  # noqa: E402
    DecompressionError,
    decompress_all,
    decompress_merged_rank,
    decompress_rank,
)
from repro.core.inter import merge_all  # noqa: E402
from repro.core.intra import CypressConfig  # noqa: E402
from repro.core.sequences import SequenceCursor  # noqa: E402
from repro.core.timing import HIST, MEANSTD  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _fields(events):
    """Every ``ReplayEvent`` field, ``mean_duration``/``mean_gap``/``gid``/
    ``req_gids`` included (``call_tuple`` leaves those out)."""
    return [astuple(e) for e in events]


def _assert_equals_spec(cyp, nprocs):
    for rank in range(nprocs):
        ctt = cyp.ctt(rank)
        assert _fields(decompress_rank(ctt, nprocs)) == _fields(spec_rank(ctt, nprocs))
    merged = merge_all([cyp.ctt(r) for r in range(nprocs)], nranks=nprocs)
    for tree in (merged, serialize.loads(serialize.dumps(merged))):
        want = spec_all(tree, nprocs)
        got = decompress_all(tree, nprocs)
        assert list(got) == list(want)
        for rank, events in want.items():
            assert _fields(got[rank]) == _fields(events)
            assert _fields(decompress_merged_rank(tree, rank, nprocs)) == _fields(events)


class TestEqualsSpec:
    @settings(**SETTINGS)
    @given(program(allow_subcomms=True), st.sampled_from([2, 4, 6]),
           st.sampled_from([MEANSTD, HIST]))
    def test_random_programs(self, source, nprocs, mode):
        _, _, cyp, _ = run_traced(source, nprocs, config=CypressConfig(timing_mode=mode))
        _assert_equals_spec(cyp, nprocs)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_at_its_smallest_rank_count(self, name):
        w = WORKLOADS[name]
        nprocs = min(w.valid_procs)
        _, _, cyp, _ = run_traced(w.source, nprocs, defines=w.defines(nprocs, 0.3))
        _assert_equals_spec(cyp, nprocs)


# ---------------------------------------------------------------------------
# Damaged leaves.  Six visits of one send leaf whose two records alternate
# (occurrences {0,2,4} and {1,3,5}); each case rewrites the terms by hand.

ALTERNATING = """
func main() {
  for (var i = 0; i < 6; i = i + 1) {
    mpi_send(0, 8 + 8 * (i % 2), 1);
    mpi_recv(0, 8 + 8 * (i % 2), 1);
  }
}
"""


def _alternating_leaf():
    _, _, cyp, _ = run_traced(ALTERNATING, 1)
    ctt = cyp.ctt(0)
    leaf = next(
        v for v in ctt.vertices() if v.records and v.records[0].key[0] == "MPI_Send"
    )
    first, second = leaf.records
    assert [list(first.occurrences), list(second.occurrences)] == [[0, 2, 4], [1, 3, 5]]
    return ctt, leaf


def _set_terms(record, terms):
    record.occurrences.terms = list(terms)
    record.occurrences.length = sum(count for _, count, _ in terms)


def _raises(walker, ctt, leaf, visit):
    with pytest.raises(DecompressionError) as exc:
        walker(ctt)
    err = exc.value
    assert (err.rank, err.gid, err.op, err.visit) == (0, leaf.gid, "MPI_Send", visit)
    assert err.candidates == tuple(r.key for r in leaf.records)
    assert [i for i, _ in err.cursors] == list(range(len(leaf.records)))
    assert all(nxt is None or isinstance(nxt, int) for _, nxt in err.cursors)
    return err


HOSTILE = {
    # name: (terms of record 0, terms of record 1,
    #        visit the product raises at, visit the spec raises at)
    "gap": ([(0, 3, 2)], [(1, 1, 0), (5, 1, 0)], 3, 3),
    "stride 0 with count > 1": ([(0, 2, 0), (4, 1, 0)], [(1, 3, 2)], 0, 2),
    "negative start": ([(-2, 3, 2)], [(1, 3, 2)], 4, 0),
    "occurrence past the total": ([(0, 3, 2)], [(1, 2, 2), (9, 1, 0)], 5, 5),
    "empty term": ([(0, 3, 2)], [(1, 0, 2), (1, 2, 2)], 5, 3),
}


class TestDamagedLeaves:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_terms_raise_with_context(self, case):
        terms0, terms1, visit, spec_visit = HOSTILE[case]
        ctt, leaf = _alternating_leaf()
        _set_terms(leaf.records[0], terms0)
        _set_terms(leaf.records[1], terms1)
        _raises(decompress_rank, ctt, leaf, visit)
        _raises(spec_rank, ctt, leaf, spec_visit)

    def test_more_iterations_than_occurrences(self):
        # The existing 5-iterations-over-3-records shape: the walk runs
        # off the end of the schedule.
        ctt, leaf = _alternating_leaf()
        for v in ctt.vertices():
            if v.loop_counts is not None:
                v.loop_counts.terms = [(8, 1, 0)]
        err = _raises(decompress_rank, ctt, leaf, 6)
        assert err.cursors == ((0, None), (1, None))
        _raises(spec_rank, ctt, leaf, 6)

    def test_unreached_damage_is_not_an_error(self):
        # Raised when the walk reaches it, not when the schedule is built.
        ctt, leaf = _alternating_leaf()
        _set_terms(leaf.records[1], [(1, 2, 2), (7, 1, 0)])  # nobody claims 5
        for v in ctt.vertices():
            if v.loop_counts is not None:
                v.loop_counts.terms = [(5, 1, 0)]
        assert _fields(decompress_rank(ctt)) == _fields(spec_rank(ctt))

    def test_two_records_claiming_one_visit_raise_at_that_visit(self):
        # The pinned behaviour (INTERNALS §8): the reference lets the
        # lower-indexed record win and the loser's cursor stick, which
        # fails a later visit or none at all; the product raises there.
        ctt, leaf = _alternating_leaf()
        _set_terms(leaf.records[0], [(0, 4, 1)])
        _set_terms(leaf.records[1], [(3, 3, 1)])
        err = _raises(decompress_rank, ctt, leaf, 3)
        assert "more than one record for visit 3" in str(err)
        assert err.cursors == ((0, 3), (1, 3))
        err = _raises(spec_rank, ctt, leaf, 4)
        assert "no record for visit 4" in str(err)

        _set_terms(leaf.records[0], [(0, 6, 1)])
        _set_terms(leaf.records[1], [(5, 1, 0)])
        _raises(decompress_rank, ctt, leaf, 5)
        assert len(spec_rank(ctt)) == 12  # silently plausible

    @pytest.mark.parametrize("count", [2**61, 2**70])
    def test_hostile_occurrence_total_is_a_decompression_error(self, count):
        ctt, leaf = _alternating_leaf()
        _set_terms(leaf.records[0], [(0, count, 2)])
        with pytest.raises(DecompressionError, match="more occurrences") as exc:
            decompress_rank(ctt)
        err = exc.value
        assert (err.rank, err.gid, err.op) == (0, leaf.gid, "MPI_Send")
        assert isinstance(err.__cause__, (MemoryError, OverflowError))


# ---------------------------------------------------------------------------
# Structure, no clock: sp P=16 scale 3 (the benchmark's irregular_sp).


@pytest.fixture(scope="module")
def sp_merged():
    w = WORKLOADS["sp"]
    _, _, cyp, _ = run_traced(w.source, 16, defines=w.defines(16, 3))
    return merge_all([cyp.ctt(r) for r in range(16)], nranks=16)


def _count_peeks(monkeypatch, walk, merged):
    """Run ``walk(merged)`` counting ``SequenceCursor.peek`` calls, split
    by whether the cursor reads a record's occurrence sequence."""
    occurrences = {
        id(r.occurrences)
        for v in merged.root.preorder() for g in v.groups.values()
        for r in g.records or ()
    }
    calls = {"leaf": 0, "control": 0}
    peek = SequenceCursor.peek

    def counted(self):
        calls["leaf" if id(self._seq) in occurrences else "control"] += 1
        return peek(self)

    monkeypatch.setattr(SequenceCursor, "peek", counted)
    walk(merged)
    monkeypatch.undo()
    return calls


class TestStructure:
    def test_one_event_object_per_reached_record_and_rank(self, sp_merged):
        traces = decompress_all(sp_merged)
        events = sum(len(t) for t in traces.values())
        objects = {id(e) for t in traces.values() for e in t}
        reached = {(r, astuple(e)) for r, t in traces.items() for e in t}
        assert (events, len(objects)) == (20784, 5856)
        # Equal events of one rank are one object, i.e. one per record.
        assert len(objects) == len(reached)

    def test_no_occurrence_cursor_at_a_leaf(self, sp_merged, monkeypatch):
        spec = _count_peeks(monkeypatch, spec_all, sp_merged)
        new = _count_peeks(monkeypatch, decompress_all, sp_merged)
        assert spec["leaf"] > 20784  # what the scan paid
        assert new["leaf"] == 0
        # Loop activations and branch encounters × paths, as the
        # reference counts them, bound what is left.
        assert new["control"] <= spec["control"]
