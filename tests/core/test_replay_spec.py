"""``repro.core.decompress`` against the naive reference walker in
``tests/spec_replay.py``: equal event for event on sound traces, a
``DecompressionError`` with its context set on damaged leaves (the same
one from all three entry points, whichever ranks share a walk), and the
structural facts the walker rests on (one walk per shape of loop and
branch groups; one event object per reached (record, rank), or per
record when no peer is relative; no occurrence cursor at a leaf)."""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from helpers import run_traced  # noqa: E402
import spec_replay as spec_replay_module  # noqa: E402
from spec_replay import (  # noqa: E402
    SequenceCursor,
    spec_all,
    spec_merged_rank,
    spec_rank,
)

from repro import obs  # noqa: E402
from repro.core import serialize  # noqa: E402
from repro.core.decompress import (  # noqa: E402
    DecompressionError,
    _values,
    decompress_all,
    decompress_merged_rank,
    decompress_rank,
)
from repro.core.inter import merge_all  # noqa: E402
from repro.core.intra import CypressConfig  # noqa: E402
from repro.core.ranks import ABS  # noqa: E402
from repro.core.sequences import IntSequence  # noqa: E402
from repro.core.timing import HIST, MEANSTD  # noqa: E402
from repro.static.cst import CALL  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402
from tests.record_fields import occurrences, set_occurrences  # noqa: E402

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _fields(events):
    """Every ``ReplayEvent`` field, ``mean_duration``/``mean_gap``/``gid``/
    ``req_gids`` included (``call_tuple`` leaves those out)."""
    return [tuple(e) for e in events]


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
    assert [list(occurrences(first)), list(occurrences(second))] == [[0, 2, 4], [1, 3, 5]]
    return ctt, leaf


def _set_terms(record, terms):
    set_occurrences(record, IntSequence(
        list(terms), sum(count for _, count, _ in terms)
    ))


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

    def test_hostile_iteration_count_fails_where_a_small_one_does(self):
        # 2**40 iterations are never walked: the walk stops once a leaf
        # has run past every record it has, and raises at visit 6 as the
        # 8-iteration case above does.
        ctt, leaf = _alternating_leaf()
        for v in ctt.vertices():
            if v.loop_counts is not None:
                v.loop_counts.terms = [(2**40, 1, 0)]
        merged = merge_all([ctt], nranks=1)
        _raises(decompress_rank, ctt, leaf, 6)
        _raises(lambda _: decompress_merged_rank(merged, 0), ctt, leaf, 6)
        _raises(lambda _: decompress_all(merged), ctt, leaf, 6)

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


class TestSequenceValues:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-5, 20), st.integers(-2, 5), st.integers(-3, 3)),
        max_size=6,
    ))
    def test_values_are_what_the_cursor_reads(self, terms):
        # Loop counts and branch visits are read through a generator;
        # a term with a count of 1 or less still yields its start once.
        seq = IntSequence(list(terms), sum(max(c, 0) for _, c, _ in terms))
        cursor, want = SequenceCursor(seq), []
        while not cursor.exhausted():
            want.append(cursor.next())
        assert list(_values(seq)) == want


# ---------------------------------------------------------------------------
# Damage inside a rank class.  Ranks 1-3 run the alternating loop and
# share its groups; rank 0 skips it.  ``decompress_all`` walks the class
# once, as rank 1, yet every entry point must raise what the rank itself
# would.

SHARED = """
func main() {
  var rank = mpi_comm_rank();
  if (rank > 0) {
    for (var i = 0; i < 6; i = i + 1) {
      mpi_send(rank, 8 + 8 * (i % 2), 1);
      mpi_recv(rank, 8 + 8 * (i % 2), 1);
    }
  }
  mpi_barrier();
}
"""


def _shared_class():
    _, _, cyp, _ = run_traced(SHARED, 4)
    return cyp, merge_all([cyp.ctt(r) for r in range(4)], nranks=4)


def _record_lists(cyp, merged, op):
    """The ``op`` leaf's gid and every record list that replays it: the
    merged group's, then ranks 1-3's own."""
    vertex = next(v for v in merged.root.preorder() if v.op == op)
    (group,) = vertex.groups
    assert group.ranks == [1, 2, 3]
    lists = [group.records] + [
        next(v.records for v in cyp.ctt(r).vertices() if v.op == op)
        for r in group.ranks
    ]
    return vertex.gid, lists


def _error(walk):
    with pytest.raises(DecompressionError) as exc:
        walk()
    err = exc.value
    return err.rank, err.gid, err.op, err.visit


def _every_entry_point(cyp, merged, nranks=None):
    """The error of ``decompress_all`` and, for each rank of the class,
    of ``decompress_merged_rank`` and ``decompress_rank``."""
    errors = {"all": _error(lambda: decompress_all(merged, nranks))}
    for r in (1, 2, 3):
        errors[f"merged {r}"] = _error(
            lambda: decompress_merged_rank(merged, r, nranks)
        )
        errors[f"own {r}"] = _error(lambda: decompress_rank(cyp.ctt(r), nranks))
    return errors


class TestDamageAcrossRanks:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_terms_raise_the_same_error_everywhere(self, case):
        terms0, terms1, visit, _ = HOSTILE[case]
        cyp, merged = _shared_class()
        gid, lists = _record_lists(cyp, merged, "MPI_Send")
        for records in lists:
            _set_terms(records[0], terms0)
            _set_terms(records[1], terms1)
        errors = _every_entry_point(cyp, merged)
        # The shared walk names the group's lowest member.
        assert errors["all"] == (1, gid, "MPI_Send", visit)
        for r in (1, 2, 3):
            assert errors[f"merged {r}"] == errors[f"own {r}"] == (
                r, gid, "MPI_Send", visit
            )

    def test_peer_error_before_a_hole_raises_first(self):
        cyp, merged = _shared_class()
        send_gid, sends = _record_lists(cyp, merged, "MPI_Send")
        _, recvs = _record_lists(cyp, merged, "MPI_Recv")
        for records in sends:  # the first event of each rank: out of range
            record = records[0]
            record.key = (record.key[0], ("rel", 100)) + record.key[2:]
        for records in recvs:  # recv visit 3 (event 7) is claimed by nobody
            _set_terms(records[1], [(1, 1, 0), (5, 1, 0)])
        errors = _every_entry_point(cyp, merged, nranks=4)
        assert set(errors.values()) == {
            (r, send_gid, "MPI_Send", -1) for r in (1, 2, 3)
        }
        assert errors["all"][0] == 1
        # Without nranks= no peer is out of range: the hole raises.
        errors = _every_entry_point(cyp, merged)
        assert errors["all"][0] == 1 and errors["all"][2:] == ("MPI_Recv", 3)

    def test_hole_before_a_peer_error_raises_first(self):
        # The walk stops at the hole, so a record it never reached is
        # never decoded.
        cyp, merged = _shared_class()
        _, sends = _record_lists(cyp, merged, "MPI_Send")
        recv_gid, recvs = _record_lists(cyp, merged, "MPI_Recv")
        for records in sends:  # first reached at event 2
            record = records[1]
            record.key = (record.key[0], ("rel", 100)) + record.key[2:]
        for records in recvs:  # recv visit 0 (event 1) is claimed by nobody
            _set_terms(records[0], [(2, 2, 2)])
        errors = _every_entry_point(cyp, merged, nranks=4)
        assert errors["all"] == (1, recv_gid, "MPI_Recv", 0)
        for r in (1, 2, 3):
            assert errors[f"merged {r}"] == errors[f"own {r}"] == (
                r, recv_gid, "MPI_Recv", 0
            )


# ---------------------------------------------------------------------------
# Structure, no clock: sp P=16 scale 3 and mg P=256 scale 0.1 (the
# benchmark's irregular_sp and wide_mg).  Pinned: (events, event objects,
# walks, classes).  Every rank of sp is its own class, all of one shape;
# mg's 256 ranks fall in 50 classes of 3 shapes.

PINNED = {"sp": (20784, 5766, 1, 16), "mg": (9888, 7317, 3, 3)}


def _merged_workload(name, nprocs, scale):
    w = WORKLOADS[name]
    _, _, cyp, _ = run_traced(w.source, nprocs, defines=w.defines(nprocs, scale))
    return merge_all([cyp.ctt(r) for r in range(nprocs)], nranks=nprocs)


@pytest.fixture(scope="module")
def sp_merged():
    return _merged_workload("sp", 16, 3)


@pytest.fixture(scope="module")
def mg_merged():
    return _merged_workload("mg", 256, 0.1)


def _observed_replay(merged):
    registry = obs.enable()
    try:
        traces = decompress_all(merged)
    finally:
        obs.disable()
    return traces, registry.counters


def _absolute(record):
    return record.key[1][0] == ABS and record.key[2][0] == ABS


def _count_peeks(monkeypatch, walk, merged):
    """Run ``walk(merged)`` counting ``SequenceCursor.peek`` calls, split
    by whether the cursor reads a record's occurrence sequence or a
    loop's or a branch's (the group's own, or the empty one)."""
    control = {
        id(seq)
        for v in merged.root.preorder() for g in v.groups
        for seq in (g.counts, g.visits) if seq is not None
    }
    control.add(id(spec_replay_module._EMPTY))
    calls = {"leaf": 0, "control": 0}
    peek = SequenceCursor.peek

    def counted(self):
        calls["control" if id(self._seq) in control else "leaf"] += 1
        return peek(self)

    monkeypatch.setattr(SequenceCursor, "peek", counted)
    walk(merged)
    monkeypatch.undo()
    return calls


class TestStructure:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_event_objects_per_reached_record(self, name, request):
        merged = request.getfixturevalue(f"{name}_merged")
        traces, _ = _observed_replay(merged)
        events = sum(len(t) for t in traces.values())
        objects = {id(e) for t in traces.values() for e in t}
        # Every member of a sound group reaches each of its records: a
        # record with a relative peer is one object per member rank, an
        # all-absolute one a single object for all of them.
        relative = absolute = 0
        for v in merged.root.preorder():
            for g in v.groups:
                for r in g.records or ():
                    if _absolute(r):
                        absolute += 1
                    else:
                        relative += len(g.ranks)
        assert len(objects) == relative + absolute
        assert (events, len(objects)) == PINNED[name][:2]
        # Equal events of one rank are one object.
        for t in traces.values():
            assert len({id(e) for e in t}) == len(set(t))

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_one_walk_per_group_vector(self, name, request):
        # One walk per distinct vector of LOOP and BRANCH groups (a
        # shape); the leaf groups only split a shape into classes.
        merged = request.getfixturevalue(f"{name}_merged")
        _, counters = _observed_replay(merged)
        vectors: dict[int, list] = {}
        for v in merged.root.preorder():
            for g in v.sorted_groups():
                for r in g.ranks:
                    vectors.setdefault(r, []).append((v.kind != CALL, id(g)))
        shapes = {
            tuple(g for control, g in groups if control)
            for groups in vectors.values()
        }
        classes = {tuple(groups) for groups in vectors.values()}
        assert counters["replay.walks"] == len(shapes) == PINNED[name][2]
        assert len(classes) == PINNED[name][3]
        assert counters["replay.ranks"] == len(vectors)

    def test_no_occurrence_cursor_at_a_leaf(self, sp_merged, monkeypatch):
        spec = _count_peeks(monkeypatch, spec_all, sp_merged)
        new = _count_peeks(monkeypatch, decompress_all, sp_merged)
        assert spec["leaf"] > 20784  # what the scan paid
        assert new["leaf"] == 0
        # Loop activations and branch encounters × paths, as the
        # reference counts them, bound what is left.
        assert new["control"] <= spec["control"]
