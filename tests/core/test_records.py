"""CompressedRecord unit tests."""

import struct
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from spec_compress import make_key  # noqa: E402

from repro.core.inter import _records_signature  # noqa: E402
from repro.core.records import (  # noqa: E402
    CompressedRecord,
    event_key,
    key_params,
)
from repro.core.sequences import IntSequence  # noqa: E402
from repro.core.timing import HIST, MEANSTD, TimeStats  # noqa: E402
from repro.mpisim.datatypes import ANY_SOURCE  # noqa: E402
from repro.mpisim.events import NO_PEER, CommEvent  # noqa: E402
from tests.record_fields import (  # noqa: E402
    duration,
    occurrences,
    pre_gap,
    set_duration,
    set_pre_gap,
)


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
        assert rec.length == 5
        assert occurrences(rec).terms == [(0, 5, 1)]
        assert duration(rec).count == 5 and duration(rec).mean == 2.0
        assert pre_gap(rec).mean == 1.0

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
        assert occurrences(a).to_list() == [0, 1, 2]
        assert duration(a).count == 3

    def test_ordered_merge_sorts_when_interleaved(self):
        # A late-resolving wildcard may carry an earlier visit index.
        a = CompressedRecord(key=key())
        b = CompressedRecord(key=key())
        for i in (1, 3, 5):
            a.add_occurrence(i, 1.0, 0.0)
        for i in (0, 2):
            b.add_occurrence(i, 1.0, 0.0)
        a.merge_from(b)
        assert occurrences(a).to_list() == [0, 1, 2, 3, 5]

    def test_payload_equal_ignores_timing(self):
        # The inter-process grouping compares a leaf's records by key
        # and occurrences only.
        a = CompressedRecord(key=key())
        b = CompressedRecord(key=key())
        a.add_occurrence(0, 1.0, 0.0)
        b.add_occurrence(0, 99.0, 50.0)
        assert _records_signature([a]) == _records_signature([b])
        c = CompressedRecord(key=key(nbytes=128))
        c.add_occurrence(0, 1.0, 0.0)
        assert _records_signature([a]) != _records_signature([c])


class TestCopy:
    def test_copy_independent(self):
        a = CompressedRecord(key=key())
        a.add_occurrence(0, 1.0, 0.5)
        b = a.copy()
        b.add_occurrence(1, 2.0, 0.5)
        assert a.length == 1 and b.length == 2
        assert duration(a).count == 1


def _bits(stats):
    """A TimeStats field for field, floats by their bit pattern."""
    pack = struct.Struct("<d").pack
    return (
        stats.mode, stats.count, pack(stats.mean), pack(stats.m2),
        pack(stats.minimum), pack(stats.maximum), stats.bins,
    )


def _record_bits(rec):
    return (
        rec.key, occurrences(rec).terms, occurrences(rec).length,
        _bits(duration(rec)), _bits(pre_gap(rec)), rec.pending,
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
        stepwise = CompressedRecord(key=k, pending=pending)
        set_duration(stepwise, TimeStats(mode=mode))
        set_pre_gap(stepwise, TimeStats(mode=mode))
        stepwise.add_occurrence(visit, d, g)
        assert _record_bits(direct) == _record_bits(stepwise)
        direct.add_occurrence(later, d2, g2)
        stepwise.add_occurrence(later, d2, g2)
        assert _record_bits(direct) == _record_bits(stepwise)

    @pytest.mark.parametrize("mode", [MEANSTD, HIST])
    @given(us=MICROSECONDS, us2=MICROSECONDS)
    def test_stats_first_equals_construct_then_add(self, mode, us, us2):
        direct = duration(CompressedRecord.first(key(), 0, us, us, mode))
        assert _bits(pre_gap(CompressedRecord.first(key(), 0, 0.0, us, mode))) \
            == _bits(direct)
        stepwise = TimeStats(mode=mode)
        stepwise.add(us)
        assert _bits(direct) == _bits(stepwise)
        direct.add(us2)
        stepwise.add(us2)
        assert _bits(direct) == _bits(stepwise)

    def test_copy_is_field_for_field(self):
        rec = CompressedRecord.first(key(), 3, 2.5, 0.5, HIST)
        rec.add_occurrence(9, 40.0, 1.0)
        rec.add_occurrence(10, 40.0, 1.0)  # a second term: a terms list
        dup = rec.copy()
        assert _record_bits(dup) == _record_bits(rec)
        for slot in ("terms", "dur_bins", "gap_bins"):
            assert getattr(dup, slot) == getattr(rec, slot)
            assert getattr(dup, slot) is not getattr(rec, slot)


def _stats_record(mode, samples):
    """A record whose blocks hold ``samples`` (durations and pre-gaps,
    ``None`` for an empty block)."""
    rec = CompressedRecord(key=key())
    set_duration(rec, TimeStats(mode=mode))
    set_pre_gap(rec, TimeStats(mode=mode))
    for d, g in samples:
        if d is not None:
            duration_stats = duration(rec)
            duration_stats.add(d)
            set_duration(rec, duration_stats)
        if g is not None:
            gap_stats = pre_gap(rec)
            gap_stats.add(g)
            set_pre_gap(rec, gap_stats)
    return rec


SAMPLES = st.lists(
    st.tuples(st.none() | MICROSECONDS, st.none() | MICROSECONDS),
    max_size=3,
)


class TestMergeStats:
    """``merge_stats`` folds both stats blocks of every record in one
    loop: each block is what :func:`~repro.core.timing.fold_stats`
    makes of it (``TimeStats.merge_many``), bit for bit."""

    @pytest.mark.parametrize("mode", [MEANSTD, HIST])
    @given(mine=SAMPLES, others=st.lists(SAMPLES, max_size=5))
    def test_equals_fold_stats_per_block(self, mode, mine, others):
        records = [_stats_record(mode, s) for s in others]
        rec = _stats_record(mode, mine)
        want_duration, want_gap = duration(rec), pre_gap(rec)
        want_duration.merge_many([duration(r) for r in records])
        want_gap.merge_many([pre_gap(r) for r in records])
        rec.merge_stats(records)
        assert _bits(duration(rec)) == _bits(want_duration)
        assert _bits(pre_gap(rec)) == _bits(want_gap)

    def test_modes_do_not_mix(self):
        rec = _stats_record(MEANSTD, [(1.0, 1.0)])
        with pytest.raises(ValueError, match="different modes"):
            rec.merge_stats([_stats_record(HIST, [(1.0, 1.0)])])


class TestKeyParams:
    """``key_params`` reads ``event_key`` backwards: the tuple a leaf's
    ``params_index`` is rebuilt under after a spill is the one the walk
    probes it with, for every peer encoding (sentinels included)."""

    PEERS = st.one_of(
        st.sampled_from([NO_PEER, ANY_SOURCE, -5]), st.integers(0, 1 << 20)
    )

    @given(
        peer=PEERS, peer2=PEERS, rank=st.integers(0, 1 << 20),
        relative=st.booleans(), wildcard=st.booleans(),
        gids=st.lists(st.integers(-1, 99), max_size=3).map(tuple),
        ints=st.lists(st.integers(-1, 1 << 30), min_size=7, max_size=7),
    )
    def test_inverts_event_key(
        self, peer, peer2, rank, relative, wildcard, gids, ints
    ):
        tag, tag2, nbytes, nbytes2, comm, root, result_comm = ints
        ev = CommEvent(
            "MPI_Sendrecv", rank, 0, peer=peer, peer2=peer2, tag=tag,
            tag2=tag2, nbytes=nbytes, nbytes2=nbytes2, comm=comm,
            root=root, wildcard=wildcard, result_comm=result_comm,
        )
        # The walk's parameter tuple (IntraProcessCompressor._walk).
        params = (peer, nbytes, tag, gids, peer2, tag2, nbytes2, comm,
                  root, wildcard, result_comm)
        assert key_params(event_key(ev, rank, relative, gids), rank) == params
