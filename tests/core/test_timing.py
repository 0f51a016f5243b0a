"""Timing-statistics tests (Welford + histogram), checked against numpy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timing import HIST, MEANSTD, TimeStats

finite_times = st.lists(
    st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False), min_size=1
)


class TestMeanStd:
    def test_single_value(self):
        ts = TimeStats()
        ts.add(5.0)
        assert ts.mean == 5.0 and ts.std == 0.0 and ts.count == 1

    def test_known_values(self):
        ts = TimeStats()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            ts.add(v)
        assert ts.mean == pytest.approx(5.0)
        assert ts.std == pytest.approx(np.std([2, 4, 4, 4, 5, 5, 7, 9], ddof=1))

    def test_min_max(self):
        ts = TimeStats()
        for v in (3.0, 1.0, 9.0):
            ts.add(v)
        assert (ts.minimum, ts.maximum) == (1.0, 9.0)

    @settings(max_examples=100, deadline=None)
    @given(finite_times)
    def test_matches_numpy(self, values):
        ts = TimeStats()
        for v in values:
            ts.add(v)
        assert ts.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-9)
        if len(values) > 1:
            assert ts.std == pytest.approx(
                float(np.std(values, ddof=1)), rel=1e-6, abs=1e-6
            )


class TestMerge:
    @settings(max_examples=100, deadline=None)
    @given(finite_times, finite_times)
    def test_merge_equals_concatenation(self, a, b):
        ta = TimeStats()
        tb = TimeStats()
        for v in a:
            ta.add(v)
        for v in b:
            tb.add(v)
        ta.merge(tb)
        both = a + b
        assert ta.count == len(both)
        assert ta.mean == pytest.approx(float(np.mean(both)), rel=1e-9, abs=1e-9)
        assert ta.minimum == min(both) and ta.maximum == max(both)

    def test_merge_into_empty(self):
        ta = TimeStats()
        tb = TimeStats()
        tb.add(3.0)
        ta.merge(tb)
        assert ta.count == 1 and ta.mean == 3.0

    def test_merge_empty_is_noop(self):
        ta = TimeStats()
        ta.add(1.0)
        ta.merge(TimeStats())
        assert ta.count == 1

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeStats(mode=MEANSTD).merge(TimeStats(mode=HIST))


class TestMergeMany:
    """The batch fold the inter-process merge materializes groups with
    is ``merge`` applied in order — the same bits, not merely close."""

    @staticmethod
    def _state(ts):
        return (ts.count, ts.mean, ts.m2, ts.minimum, ts.maximum, ts.bins)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([MEANSTD, HIST]),
        st.lists(
            st.lists(st.floats(0.0, 1e7, allow_nan=False), max_size=6),
            max_size=8,
        ),
        st.lists(st.floats(0.0, 1e7, allow_nan=False), max_size=6),
    )
    def test_bit_for_bit_equal_to_sequential_merge(self, mode, members, seed):
        def stats(values):
            ts = TimeStats(mode=mode)
            for v in values:
                ts.add(v)
            return ts

        others = [stats(m) for m in members]  # empty members included
        sequential = stats(seed)
        for other in others:
            sequential.merge(other)
        batch = stats(seed)
        batch.merge_many(others)
        assert self._state(batch) == self._state(sequential)
        # Sources are read, never aliased: a later update of the
        # accumulator must not reach into a member's histogram.
        before = [self._state(o.copy()) for o in others]
        batch.add(3.0)
        assert [self._state(o) for o in others] == before

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeStats(mode=MEANSTD).merge_many([TimeStats(mode=HIST)])


class TestHistogram:
    def test_bins_populated(self):
        ts = TimeStats(mode=HIST)
        for v in (0.5, 1.5, 3.0, 100.0):
            ts.add(v)
        assert sum(ts.bins) == 4
        assert ts.bins[0] == 1  # < 1us

    def test_histogram_merge_adds_bins(self):
        a = TimeStats(mode=HIST)
        b = TimeStats(mode=HIST)
        a.add(2.0)
        b.add(2.0)
        a.merge(b)
        assert sum(a.bins) == 2

    def test_huge_values_clamped_to_last_bin(self):
        ts = TimeStats(mode=HIST)
        ts.add(1e12)
        assert ts.bins[-1] == 1

    def test_histogram_costs_more_bytes(self):
        a = TimeStats(mode=MEANSTD)
        b = TimeStats(mode=HIST)
        for v in (1.0, 10.0, 100.0, 1000.0):
            a.add(v)
            b.add(v)
        assert b.approx_bytes() > a.approx_bytes()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            TimeStats(mode="exotic")

    def test_unknown_mode_rejected_where_it_enters(self):
        # The record-commit path trusts the configured mode.
        from repro.core.intra import CypressConfig

        with pytest.raises(ValueError, match="exotic"):
            CypressConfig(timing_mode="exotic")


class TestCopy:
    def test_copy_independent(self):
        a = TimeStats(mode=HIST)
        a.add(5.0)
        b = a.copy()
        b.add(50.0)
        assert a.count == 1 and b.count == 2
        assert sum(a.bins) == 1
