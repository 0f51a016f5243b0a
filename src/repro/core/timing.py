"""Communication-time statistics (paper §IV-A).

Two recording modes are supported, matching the paper:

* ``meanstd`` — running average and standard deviation of the repeated
  operations' times (Welford's online algorithm);
* ``hist`` — a histogram of the time distribution with logarithmic bins
  (the scheme ScalaTrace [14] uses and the paper adopts as its second
  mode).

Both support O(1) update and exact merging across ranks (inter-process
compression merges the statistics of grouped records).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

MEANSTD = "meanstd"
HIST = "hist"

# Log-scale histogram bin edges in microseconds: <1, <2, <4, ... <2^22, inf
_NBINS = 24

_new = object.__new__


def _bin_index(us: float) -> int:
    if us < 1.0:
        return 0
    return min(_NBINS - 1, int(math.log2(us)) + 1)


def check_mode(mode: str) -> None:
    if mode not in (MEANSTD, HIST):
        raise ValueError(f"unknown timing mode {mode!r}")


def first_bins(us: float) -> list[int]:
    """A histogram holding the one sample ``us``."""
    bins = [0] * _NBINS
    bins[_bin_index(us)] = 1
    return bins


def add_sample(
    count: int, mean: float, m2: float, minimum: float, maximum: float,
    bins: list[int] | None, us: float,
) -> tuple[int, float, float, float, float]:
    """One sample ``us`` into a stats block: Welford's online update of
    ``(count, mean, m2)`` and the extremes, returned; a histogram's
    ``bins`` count it in place.  :class:`TimeStats` and a record's
    stats slots (:class:`~repro.core.records.CompressedRecord`) both
    add through here; the walk inlines the meanstd case."""
    count += 1
    delta = us - mean
    mean += delta / count
    m2 += delta * (us - mean)
    if us < minimum:
        minimum = us
    if us > maximum:
        maximum = us
    if bins is not None:
        bins[_bin_index(us)] += 1
    return count, mean, m2, minimum, maximum


def fold_stats(
    count: int, mean: float, m2: float, minimum: float, maximum: float,
    bins: list[int] | None, others,
) -> tuple:
    """A stats block with ``others`` folded in, in order — Chan et al.'s
    pairwise update, on locals.  ``others`` yields ``(count, mean, m2,
    minimum, maximum, bins)``; a histogram block (``bins`` a list) folds
    only histogram blocks.  Returns the six fields."""
    for n2, mean2, m22, minimum2, maximum2, bins2 in others:
        if (bins2 is None) != (bins is None):
            raise ValueError("cannot merge time stats of different modes")
        if n2 == 0:
            continue
        if count == 0:
            count = n2
            mean = mean2
            m2 = m22
            minimum = minimum2
            maximum = maximum2
            if bins is not None:
                bins = list(bins2)
            continue
        delta = mean2 - mean
        total = count + n2
        mean += delta * n2 / total
        m2 += m22 + delta * delta * count * n2 / total
        count = total
        if minimum2 < minimum:
            minimum = minimum2
        if maximum2 > maximum:
            maximum = maximum2
        if bins is not None:
            bins = [a + b for a, b in zip(bins, bins2)]
    return count, mean, m2, minimum, maximum, bins


def stats_bytes(bins: list[int] | None) -> int:
    """Serialized footprint estimate of a stats block: count, four
    doubles, and a histogram's nonzero bins."""
    base = 4 + 8 * 4  # count + mean/m2/min/max
    if bins is not None:
        base += sum(1 for b in bins if b) * 5 + 2  # sparse bins
    return base


@dataclass(slots=True)
class TimeStats:
    """Aggregated timing of one baseline trace term (the ScalaTrace
    comparison compressors keep one per term).  A CYPRESS record holds
    the same six fields as slots of its own; both go through
    :func:`add_sample` and :func:`fold_stats`."""

    mode: str = MEANSTD
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0  # sum of squared deviations (Welford)
    minimum: float = math.inf
    maximum: float = -math.inf
    bins: list[int] | None = None  # histogram mode only

    def __post_init__(self) -> None:
        check_mode(self.mode)
        if self.mode == HIST and self.bins is None:
            self.bins = [0] * _NBINS

    # -- update --------------------------------------------------------

    def add(self, us: float) -> None:
        (self.count, self.mean, self.m2, self.minimum,
         self.maximum) = add_sample(
            self.count, self.mean, self.m2, self.minimum, self.maximum,
            self.bins, us,
        )

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1))

    # -- merge (inter-process compression) --------------------------------

    def merge(self, other: "TimeStats") -> None:
        """Fold one stats object in: :meth:`merge_many` of one."""
        self.merge_many((other,))

    def merge_many(self, others) -> None:
        """Fold a sequence of stats in order (:func:`fold_stats`)."""
        (self.count, self.mean, self.m2, self.minimum, self.maximum,
         self.bins) = fold_stats(
            self.count, self.mean, self.m2, self.minimum, self.maximum,
            self.bins, map(_FIELDS, others),
        )

    def copy(self) -> "TimeStats":
        st = _new(TimeStats)
        st.mode = self.mode
        st.count = self.count
        st.mean = self.mean
        st.m2 = self.m2
        st.minimum = self.minimum
        st.maximum = self.maximum
        st.bins = list(self.bins) if self.bins is not None else None
        return st

    # -- size ------------------------------------------------------------

    def approx_bytes(self) -> int:
        return stats_bytes(self.bins)


_FIELDS = attrgetter("count", "mean", "m2", "minimum", "maximum", "bins")
