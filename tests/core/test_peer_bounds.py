"""Boundary-rank peer decoding: a relative delta that decodes outside
``[0, nranks)`` must never alias onto a sentinel or a plausible rank.

Regression tests for the satellite fixes: ``decode_peer`` range
validation, strict replay (``nranks=``) raising ``DecompressionError``,
the merge-time absolute-encoding fallback, and the loud ``?N`` rendering
in flat exports.
"""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.decompress import (  # noqa: E402
    DecompressionError,
    decompress_merged_rank,
    decompress_rank,
)
from repro.core.export import format_peer  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402
from repro.core.ranks import (  # noqa: E402
    ABS,
    REL,
    decode_peer,
    rel_decode_bounds,
    try_decode_peer,
)
from repro.mpisim.datatypes import ANY_SOURCE  # noqa: E402
from repro.mpisim.events import NO_PEER  # noqa: E402

RING = """
func main() {
  for (var i = 0; i < 3; i = i + 1) {
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


def _find_rel_leaf(ctt, op="MPI_Send"):
    """First CALL vertex whose record key carries a REL-encoded peer."""
    for vertex in ctt.vertices():
        if vertex.records:
            for record in vertex.records:
                if record.key is not None and record.key[0] == op:
                    if record.key[1][0] == REL:
                        return vertex, record
    raise AssertionError(f"no REL-encoded {op} record found")


def _corrupt_delta(record, delta):
    key = list(record.key)
    key[1] = (REL, delta)
    record.key = tuple(key)


class TestDecodePeer:
    def test_out_of_range_rel_raises_with_nranks(self):
        with pytest.raises(ValueError, match="outside"):
            decode_peer((REL, -1), 0, nranks=4)
        with pytest.raises(ValueError, match="outside"):
            decode_peer((REL, 1), 3, nranks=4)

    def test_in_range_rel_passes(self):
        assert decode_peer((REL, 1), 2, nranks=4) == 3
        assert decode_peer((REL, -1), 1, nranks=4) == 0

    def test_without_nranks_returns_raw(self):
        # Lenient mode: the caller sees the bogus value and decides.
        assert decode_peer((REL, -1), 0) == -1

    def test_sentinels_stay_abs(self):
        assert decode_peer((ABS, NO_PEER), 0, nranks=4) == NO_PEER
        assert decode_peer((ABS, ANY_SOURCE), 0, nranks=4) == ANY_SOURCE

    def test_try_decode_flags_overflow(self):
        assert try_decode_peer((REL, -1), 0, 4) == (-1, False)
        assert try_decode_peer((REL, 1), 3, 4) == (4, False)
        assert try_decode_peer((REL, 1), 2, 4) == (3, True)
        assert try_decode_peer((ABS, ANY_SOURCE), 0, 4) == (ANY_SOURCE, True)
        assert try_decode_peer((ABS, -7), 0, 4) == (-7, False)

    def test_negative_rel_decode_is_illegal_even_without_nranks(self):
        # Sentinels are stored absolute, so REL -> -1 can never be
        # ANY_SOURCE; flagged even when the rank count is unknown.
        assert try_decode_peer((REL, -2), 1, None) == (-1, False)

    def test_rel_decode_bounds(self):
        assert rel_decode_bounds(1, [0, 1, 2, 3]) == (1, 4)
        assert rel_decode_bounds(-1, [2, 5]) == (1, 4)


class TestStrictReplay:
    def test_corrupted_delta_raises_decompression_error(self):
        _, _, cyp, _ = run_traced(RING, 4)
        ctt = cyp.ctt(0)
        vertex, record = _find_rel_leaf(ctt)
        _corrupt_delta(record, 999)
        with pytest.raises(DecompressionError) as exc:
            decompress_rank(ctt, nranks=4)
        err = exc.value
        assert err.rank == 0
        assert err.gid == vertex.gid
        assert err.op == "MPI_Send"

    def test_boundary_rank_negative_decode_raises(self):
        # rank 0 + delta -1 -> -1: the ANY_SOURCE collision case.
        _, _, cyp, _ = run_traced(RING, 4)
        ctt = cyp.ctt(0)
        _, record = _find_rel_leaf(ctt)
        _corrupt_delta(record, -1)
        with pytest.raises(DecompressionError):
            decompress_rank(ctt, nranks=4)

    def test_lenient_replay_still_returns_raw_value(self):
        _, _, cyp, _ = run_traced(RING, 4)
        ctt = cyp.ctt(0)
        _, record = _find_rel_leaf(ctt)
        _corrupt_delta(record, -1)
        events = decompress_rank(ctt)  # no nranks: lenient
        assert any(e.peer == -1 and not e.wildcard for e in events)

    def test_healthy_replay_unchanged_by_strict_mode(self):
        _, rec, cyp, _ = run_traced(RING, 4)
        for rank in range(4):
            truth = [e.replay_tuple() for e in rec.events.get(rank, [])]
            strict = [
                e.call_tuple() for e in decompress_rank(cyp.ctt(rank), nranks=4)
            ]
            assert strict == truth


class TestMergeAbsFallback:
    def test_corrupted_rel_reencoded_abs_at_merge(self):
        _, _, cyp, _ = run_traced(RING, 4)
        ctts = [cyp.ctt(r) for r in range(4)]
        _, record = _find_rel_leaf(ctts[2])
        _corrupt_delta(record, 5)  # rank 2 + 5 = 7, outside [0, 4)
        merged = merge_all(ctts, nranks=4)
        found = None
        for vertex in merged.root.preorder():
            for group in vertex.groups.values():
                if group.records is None or 2 not in group.ranks:
                    continue
                for rec in group.records:
                    if rec.key[0] == "MPI_Send" and rec.key[1][0] == ABS:
                        found = rec.key[1]
        # The damaged delta travels as the rank-independent absolute
        # value instead of aliasing onto other ranks' plausible peers.
        assert found == (ABS, 7)

    @pytest.mark.parametrize("slot", [1, 2])
    @pytest.mark.parametrize(
        "delta,repaired", [(-3, True), (-2, False), (1, False), (2, True)]
    )
    def test_range_edges_of_the_one_pass_check(self, slot, delta, repaired):
        # On rank 2 of 4 the in-range deltas are exactly [-2, 2): the
        # merge signs a leaf and range-checks both peer slots in one
        # pass, and only an out-of-range delta may reach the repair.
        _, _, cyp, _ = run_traced(RING, 4)
        ctts = [cyp.ctt(r) for r in range(4)]
        _, record = _find_rel_leaf(ctts[2])
        key = list(record.key)
        key[slot] = (REL, delta)
        record.key = tuple(key)
        merged = merge_all(ctts, nranks=4)
        encodings = {
            rec.key[slot]
            for vertex in merged.root.preorder()
            for group in vertex.groups.values()
            if group.records is not None and 2 in group.ranks
            for rec in group.records
            if rec.key[0] == "MPI_Send"
        }
        want = (ABS, 2 + delta) if repaired else (REL, delta)
        assert want in encodings
        assert ((REL, delta) in encodings) != repaired

    def test_other_ranks_unaffected_by_victim(self):
        _, rec, cyp, _ = run_traced(RING, 4)
        ctts = [cyp.ctt(r) for r in range(4)]
        _, record = _find_rel_leaf(ctts[2])
        _corrupt_delta(record, 5)
        merged = merge_all(ctts, nranks=4)
        for rank in (0, 1, 3):
            truth = [e.replay_tuple() for e in rec.events.get(rank, [])]
            replay = [
                e.call_tuple()
                for e in decompress_merged_rank(merged, rank, nranks=4)
            ]
            assert replay == truth

    def test_healthy_merge_byte_identical_with_nranks(self):
        # The fallback is copy-on-write and never fires on healthy
        # traces — nranks= must not perturb the merged bytes.
        _, _, cyp, _ = run_traced(RING, 4)
        plain = merge_all([cyp.ctt(r) for r in range(4)])
        _, _, cyp2, _ = run_traced(RING, 4)
        checked = merge_all([cyp2.ctt(r) for r in range(4)], nranks=4)
        assert serialize.dumps(plain) == serialize.dumps(checked)

    def test_per_rank_ctt_not_mutated_by_fallback(self):
        _, _, cyp, _ = run_traced(RING, 4)
        ctts = [cyp.ctt(r) for r in range(4)]
        _, record = _find_rel_leaf(ctts[2])
        _corrupt_delta(record, 5)
        before = record.key
        merge_all(ctts, nranks=4)
        assert record.key == before  # copy-on-write repaired a copy


class TestEmitLeafError:
    def test_error_carries_replay_context(self):
        _, _, cyp, _ = run_traced(RING, 4)
        ctt = cyp.ctt(1)
        vertex, record = _find_rel_leaf(ctt, op="MPI_Send")
        # Drop the record's occurrences: the visit then has no covering
        # record and _emit_leaf must report exactly what it tried.
        record.occurrences.terms.clear()
        record.occurrences.length = 0
        with pytest.raises(DecompressionError) as exc:
            decompress_rank(ctt)
        err = exc.value
        assert err.rank == 1
        assert err.gid == vertex.gid
        assert err.op == "MPI_Send"
        assert err.visit >= 0
        assert record.key in err.candidates
        assert all(nxt is None or isinstance(nxt, int) for _i, nxt in err.cursors)
        assert isinstance(err, Exception) and "no record for visit" in str(err)


class TestFormatPeer:
    def test_no_peer_omitted(self):
        assert format_peer(NO_PEER) is None

    def test_any_source_star_only_on_wildcard(self):
        assert format_peer(ANY_SOURCE, wildcard=True) == "*"
        # -1 on a non-wildcard record is an overflow, not ANY_SOURCE.
        assert format_peer(-1, wildcard=False) == "?-1"

    def test_negative_overflow_loud(self):
        assert format_peer(-3) == "?-3"

    def test_normal_rank_plain(self):
        assert format_peer(5) == "5"
