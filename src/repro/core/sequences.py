"""Compressed integer sequences: the paper's stride tuples.

Loop iteration counts, branch-taken visit indices and record occurrence
indices are all monotone or repetitive integer sequences.  CYPRESS
compresses them with stride tuples like ``<0, k-1, 1>`` ("from 0 to k-1
with stride 1", paper §IV-A).  :class:`IntSequence` stores a sequence as a
list of ``(start, count, stride)`` terms and supports O(1) amortised
online append: a new value either extends the last term or opens a new
one.

A constant run ``a×n`` is the stride-0 term ``(a, n, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(slots=True)
class IntSequence:
    """An append-only integer sequence stored as stride terms.

    ``slots=True``: one ``append`` runs per marker/event on the tracer's
    hot path, so attribute access must not go through an instance dict."""

    terms: list[tuple[int, int, int]] = field(default_factory=list)  # (start, count, stride)
    length: int = 0

    # -- construction ----------------------------------------------------

    def append(self, value: int) -> None:
        self.length += 1
        terms = self.terms
        if not terms:
            terms.append((value, 1, 0))
            return
        start, count, stride = terms[-1]
        if count == 1:
            # A singleton can absorb any second value by fixing its stride.
            terms[-1] = (start, 2, value - start)
            return
        if value == start + count * stride:
            terms[-1] = (start, count + 1, stride)
            return
        if count == 2:
            # A two-element term whose continuation fails donates its second
            # element to pair with the new value: the greedy singleton-absorb
            # above may have captured the head of an arithmetic run under the
            # wrong stride (`0,5,6,7,8` must become `0 | <5,8,1>`, not
            # `<0,5,5> | <6,8,1>`).  The leftover first element folds into
            # the previous term when it continues it, so repair chains stay
            # term-count-neutral on alternating patterns like 0,0,1,1,2,2.
            second = start + stride
            new_stride = value - second
            if new_stride != stride:
                if len(terms) >= 2:
                    p_start, p_count, p_stride = terms[-2]
                    if p_count == 1:
                        terms[-2] = (p_start, 2, start - p_start)
                        terms[-1] = (second, 2, new_stride)
                        return
                    if start == p_start + p_count * p_stride:
                        terms[-2] = (p_start, p_count + 1, p_stride)
                        terms[-1] = (second, 2, new_stride)
                        return
                terms[-1] = (start, 1, 0)
                terms.append((second, 2, new_stride))
                return
        terms.append((value, 1, 0))

    def extend(self, values: Iterable[int]) -> None:
        for v in values:
            self.append(v)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "IntSequence":
        seq = cls()
        seq.extend(values)
        return seq

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        for start, count, stride in self.terms:
            value = start
            for _ in range(count):
                yield value
                value += stride

    def to_list(self) -> list[int]:
        """All values, built a term at a time (``loads`` expands every
        group's rank set and every multi-valued leaf column with it)."""
        out: list[int] = []
        for start, count, stride in self.terms:
            if stride:
                out.extend(range(start, start + count * stride, stride))
            else:
                out.extend([start] * count)
        return out

    def total(self) -> int:
        """Sum of all values — O(terms), not O(length).  (For a loop
        vertex's iteration counts this is the total number of body
        executions; the query engine's cost model leans on it.)"""
        return sum(
            count * start + stride * (count * (count - 1) // 2)
            for start, count, stride in self.terms
        )

    def value_at(self, pos: int) -> int:
        """The ``pos``-th value (0-based) — O(terms) random access."""
        if pos < 0 or pos >= self.length:
            raise IndexError(f"position {pos} out of range [0, {self.length})")
        for start, count, stride in self.terms:
            if pos < count:
                return start + pos * stride
            pos -= count
        raise IndexError(f"position {pos} beyond terms")  # pragma: no cover

    def first_at_least(self, value: int) -> int | None:
        """The smallest recorded value ``>= value``, or ``None`` —
        O(terms) arithmetic, whatever the counts (replay names a damaged
        leaf's next occurrences with it)."""
        best = None
        for start, count, stride in self.terms:
            if count < 1:
                continue
            if stride < 0:  # read a descending term from its low end
                start, stride = start + (count - 1) * stride, -stride
            if start < value:
                skip = -((start - value) // stride) if stride else count
                if skip >= count:
                    continue
                start += skip * stride
            if best is None or start < best:
                best = start
        return best

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSequence):
            return NotImplemented
        return self.length == other.length and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.length, tuple(self.terms)))

    def __repr__(self) -> str:
        shown = ", ".join(
            f"<{s},{s + (c - 1) * d},{d}>" if c > 1 else str(s)
            for s, c, d in self.terms[:8]
        )
        if len(self.terms) > 8:
            shown += ", ..."
        return f"IntSequence({shown}; n={self.length})"

    # -- size accounting -----------------------------------------------------

    def term_count(self) -> int:
        return len(self.terms)

    def approx_bytes(self) -> int:
        """Serialized footprint estimate: 3 varint-ish ints per term."""
        return 2 + 6 * len(self.terms)


class SequenceCursor:
    """Sequential reader over an :class:`IntSequence` (replay helper).

    ``peek``/``next`` walk values in order; ``contains_next(v)`` answers
    "is ``v`` the next recorded value?" and consumes it when it is — the
    O(1)-amortised membership test replay uses for monotone visit indices.
    """

    def __init__(self, seq: IntSequence) -> None:
        self._seq = seq
        self._term = 0
        self._offset = 0

    def exhausted(self) -> bool:
        return self._term >= len(self._seq.terms)

    def peek(self) -> int | None:
        if self.exhausted():
            return None
        start, _count, stride = self._seq.terms[self._term]
        return start + self._offset * stride

    def next(self) -> int:
        value = self.peek()
        if value is None:
            raise StopIteration("sequence exhausted")
        start, count, _stride = self._seq.terms[self._term]
        self._offset += 1
        if self._offset >= count:
            self._term += 1
            self._offset = 0
        return value

    def contains_next(self, value: int) -> bool:
        if self.peek() == value:
            self.next()
            return True
        return False
