"""CompressedRecord unit tests."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.records import CompressedRecord, make_key
from repro.core.sequences import IntSequence
from repro.core.timing import HIST, MEANSTD, TimeStats


def key(**kw):
    base = dict(
        op="MPI_Send", peer_enc=("rel", 1), peer2_enc=("abs", -100),
        tag=0, tag2=0, nbytes=64, nbytes2=0, comm=0, root=-1,
        wildcard=False, req_gids=(),
    )
    base.update(kw)
    return make_key(**base)


class TestOccurrences:
    def test_add_occurrence_tracks_count_and_stats(self):
        rec = CompressedRecord(key=key())
        for i in range(5):
            rec.add_occurrence(i, duration_us=2.0, gap_us=1.0)
        assert rec.count == 5
        assert rec.occurrences.terms == [(0, 5, 1)]
        assert rec.duration.count == 5 and rec.duration.mean == 2.0
        assert rec.pre_gap.mean == 1.0

    def test_op_accessor(self):
        assert CompressedRecord(key=key()).op == "MPI_Send"


class TestMerge:
    def test_ordered_merge_appends_when_monotone(self):
        a = CompressedRecord(key=key())
        b = CompressedRecord(key=key())
        a.add_occurrence(0, 1.0, 0.0)
        a.add_occurrence(1, 1.0, 0.0)
        b.add_occurrence(2, 3.0, 0.0)
        a.merge_from(b)
        assert a.occurrences.to_list() == [0, 1, 2]
        assert a.duration.count == 3

    def test_ordered_merge_sorts_when_interleaved(self):
        # A late-resolving wildcard may carry an earlier visit index.
        a = CompressedRecord(key=key())
        b = CompressedRecord(key=key())
        for i in (1, 3, 5):
            a.add_occurrence(i, 1.0, 0.0)
        for i in (0, 2):
            b.add_occurrence(i, 1.0, 0.0)
        a.merge_from(b)
        assert a.occurrences.to_list() == [0, 1, 2, 3, 5]

    def test_payload_equal_ignores_timing(self):
        a = CompressedRecord(key=key())
        b = CompressedRecord(key=key())
        a.add_occurrence(0, 1.0, 0.0)
        b.add_occurrence(0, 99.0, 50.0)
        assert a.payload_equal(b)
        c = CompressedRecord(key=key(nbytes=128))
        c.add_occurrence(0, 1.0, 0.0)
        assert not a.payload_equal(c)


class TestCopy:
    def test_copy_independent(self):
        a = CompressedRecord(key=key())
        a.add_occurrence(0, 1.0, 0.5)
        b = a.copy()
        b.add_occurrence(1, 2.0, 0.5)
        assert a.count == 1 and b.count == 2
        assert a.duration.count == 1

    def test_approx_bytes_positive(self):
        a = CompressedRecord(key=key(req_gids=(1, 2, 3)))
        a.add_occurrence(0, 1.0, 0.0)
        assert a.approx_bytes() > 20


def _bits(stats):
    """A TimeStats field for field, floats by their bit pattern."""
    pack = struct.Struct("<d").pack
    return (
        stats.mode, stats.count, pack(stats.mean), pack(stats.m2),
        pack(stats.minimum), pack(stats.maximum), stats.bins,
    )


def _record_bits(rec):
    return (
        rec.key, rec.occurrences.terms, rec.occurrences.length,
        _bits(rec.duration), _bits(rec.pre_gap), rec.pending,
    )


#: Finite, non-negative microseconds — what a simulated clock can hand
#: the compressor — with the corners the Welford shortcut could miss.
MICROSECONDS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e300]),
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
              allow_subnormal=True),
)


class TestFirstOccurrence:
    """``first`` is default-construct + ``add_occurrence`` in one step,
    bit for bit — and stays so after the next occurrence."""

    @pytest.mark.parametrize("mode", [MEANSTD, HIST])
    @given(
        visit=st.integers(0, 1 << 40), later=st.integers(0, 1 << 40),
        d=MICROSECONDS, g=MICROSECONDS, d2=MICROSECONDS, g2=MICROSECONDS,
        pending=st.booleans(),
    )
    def test_equals_construct_then_add(
        self, mode, visit, later, d, g, d2, g2, pending
    ):
        k = None if pending else key()
        direct = CompressedRecord.first(k, visit, d, g, mode, pending)
        stepwise = CompressedRecord(
            key=k, duration=TimeStats(mode=mode),
            pre_gap=TimeStats(mode=mode), pending=pending,
        )
        stepwise.add_occurrence(visit, d, g)
        assert _record_bits(direct) == _record_bits(stepwise)
        direct.add_occurrence(later, d2, g2)
        stepwise.add_occurrence(later, d2, g2)
        assert _record_bits(direct) == _record_bits(stepwise)

    @pytest.mark.parametrize("mode", [MEANSTD, HIST])
    @given(us=MICROSECONDS, us2=MICROSECONDS)
    def test_stats_first_equals_construct_then_add(self, mode, us, us2):
        direct = TimeStats.first(mode, us)
        stepwise = TimeStats(mode=mode)
        stepwise.add(us)
        assert _bits(direct) == _bits(stepwise)
        direct.add(us2)
        stepwise.add(us2)
        assert _bits(direct) == _bits(stepwise)

    def test_copy_is_field_for_field(self):
        rec = CompressedRecord.first(key(), 3, 2.5, 0.5, HIST)
        rec.add_occurrence(9, 40.0, 1.0)
        dup = rec.copy()
        assert _record_bits(dup) == _record_bits(rec)
        assert dup.duration.bins is not rec.duration.bins
        assert dup.occurrences.terms is not rec.occurrences.terms
