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
from dataclasses import dataclass, field

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


@dataclass(slots=True)
class TimeStats:
    """Aggregated timing of one (merged) communication record.

    ``__slots__`` (via ``dataclass(slots=True)``) keeps the per-record
    footprint small and attribute access monomorphic — ``add`` runs once
    per MPI event on the tracer's critical path (twice: duration and
    pre-gap), so there is no instance ``__dict__`` to chase."""

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

    @classmethod
    def first(cls, mode: str, us: float) -> "TimeStats":
        """The stats of one sample, built in one step: bit-identical to
        ``TimeStats(mode)`` followed by ``add(us)`` (Welford at n = 1 is
        ``mean = 0.0 + us``, ``m2 = 0.0``, ``min = max = us`` for finite
        ``us``).  Part of the record-commit path
        (:meth:`~repro.core.records.CompressedRecord.first`), so ``mode``
        is trusted: it was checked where it entered
        (:class:`~repro.core.intra.CypressConfig`)."""
        st = _new(cls)
        st.mode = mode
        st.count = 1
        st.mean = 0.0 + us
        st.m2 = 0.0
        st.minimum = us
        st.maximum = us
        if mode == HIST:
            st.bins = bins = [0] * _NBINS
            bins[_bin_index(us)] = 1
        else:
            st.bins = None
        return st

    # -- update --------------------------------------------------------

    def add(self, us: float) -> None:
        self.count += 1
        delta = us - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (us - self.mean)
        if us < self.minimum:
            self.minimum = us
        if us > self.maximum:
            self.maximum = us
        if self.mode == HIST:
            self.bins[_bin_index(us)] += 1

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1))

    # -- merge (inter-process compression) --------------------------------

    def merge(self, other: "TimeStats") -> None:
        if self.mode != other.mode:
            raise ValueError("cannot merge time stats of different modes")
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            if self.mode == HIST:
                self.bins = list(other.bins)
            return
        n1, n2 = self.count, other.count
        delta = other.mean - self.mean
        total = n1 + n2
        self.mean += delta * n2 / total
        self.m2 += other.m2 + delta * delta * n1 * n2 / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        if self.mode == HIST:
            self.bins = [a + b for a, b in zip(self.bins, other.bins)]

    def merge_many(self, others) -> None:
        """Fold a sequence of stats, bit-identical to :meth:`merge`
        called once per element in order — the same float operations on
        locals, the slots written back once."""
        mode = self.mode
        n = self.count
        mean = self.mean
        m2 = self.m2
        minimum = self.minimum
        maximum = self.maximum
        bins = self.bins
        for other in others:
            if other.mode != mode:
                raise ValueError("cannot merge time stats of different modes")
            n2 = other.count
            if n2 == 0:
                continue
            if n == 0:
                n = n2
                mean = other.mean
                m2 = other.m2
                minimum = other.minimum
                maximum = other.maximum
                if bins is not None:
                    bins = list(other.bins)
                continue
            delta = other.mean - mean
            total = n + n2
            mean += delta * n2 / total
            m2 += other.m2 + delta * delta * n * n2 / total
            n = total
            if other.minimum < minimum:
                minimum = other.minimum
            if other.maximum > maximum:
                maximum = other.maximum
            if bins is not None:
                bins = [a + b for a, b in zip(bins, other.bins)]
        self.count = n
        self.mean = mean
        self.m2 = m2
        self.minimum = minimum
        self.maximum = maximum
        self.bins = bins

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
        base = 4 + 8 * 4  # count + mean/m2/min/max
        if self.mode == HIST:
            base += sum(1 for b in self.bins if b) * 5 + 2  # sparse bins
        return base
