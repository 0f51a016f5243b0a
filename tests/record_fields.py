"""A record's occurrences and timing as the values tests compare.

A :class:`~repro.core.records.CompressedRecord` keeps its occurrence
sequence and its two stats blocks as slots of its own (one inline term
until a second opens a ``terms`` list; ``dur_*`` / ``gap_*`` fields).
Tests and the spec oracles (``spec_merge``, ``spec_replay``) read and
write them here, as an :class:`IntSequence` and two :class:`TimeStats`,
so the layout is spelled out in one place in ``tests/``.
"""

from __future__ import annotations

from repro.core.sequences import IntSequence
from repro.core.timing import HIST, MEANSTD, TimeStats

__all__ = [
    "duration",
    "merge_timing",
    "occurrences",
    "pre_gap",
    "set_duration",
    "set_occurrences",
    "set_pre_gap",
]


def occurrences(rec) -> IntSequence:
    """The occurrence indices (a copy)."""
    return rec.occurrences()


def set_occurrences(rec, seq: IntSequence) -> None:
    rec.set_occurrences(seq)


def _stats(count, mean, m2, minimum, maximum, bins) -> TimeStats:
    return TimeStats(
        MEANSTD if bins is None else HIST, count, mean, m2, minimum,
        maximum, None if bins is None else list(bins),
    )


def duration(rec) -> TimeStats:
    """The call-duration stats block (a copy)."""
    return _stats(rec.dur_count, rec.dur_mean, rec.dur_m2, rec.dur_min,
                  rec.dur_max, rec.dur_bins)


def pre_gap(rec) -> TimeStats:
    """The pre-gap stats block (a copy)."""
    return _stats(rec.gap_count, rec.gap_mean, rec.gap_m2, rec.gap_min,
                  rec.gap_max, rec.gap_bins)


def set_duration(rec, st: TimeStats) -> None:
    (rec.dur_count, rec.dur_mean, rec.dur_m2, rec.dur_min, rec.dur_max,
     rec.dur_bins) = (st.count, st.mean, st.m2, st.minimum, st.maximum,
                      None if st.bins is None else list(st.bins))


def set_pre_gap(rec, st: TimeStats) -> None:
    (rec.gap_count, rec.gap_mean, rec.gap_m2, rec.gap_min, rec.gap_max,
     rec.gap_bins) = (st.count, st.mean, st.m2, st.minimum, st.maximum,
                      None if st.bins is None else list(st.bins))


def merge_timing(mine, other) -> None:
    """One ``TimeStats.merge`` of ``other``'s blocks into ``mine``'s."""
    st = duration(mine)
    st.merge(duration(other))
    set_duration(mine, st)
    st = pre_gap(mine)
    st.merge(pre_gap(other))
    set_pre_gap(mine, st)
