"""Compressed integer sequences: the paper's stride tuples.

Loop iteration counts, branch-taken visit indices and record occurrence
indices are all monotone or repetitive integer sequences.  CYPRESS
compresses them with stride tuples like ``<0, k-1, 1>`` ("from 0 to k-1
with stride 1", paper §IV-A).  :class:`IntSequence` stores a sequence as a
list of ``(start, count, stride)`` terms and supports O(1) amortised
online append: a new value either extends the last term or opens a new
one.

A constant run ``a×n`` is the stride-0 term ``(a, n, 0)``.

On disk (container v8) a rank set or a leaf column may also repeat a
window of terms with a constant shift: :func:`nest` finds such blocks
and :func:`expand` turns them back into the flat terms, which are all
that is ever held in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator


def append_term(terms: list[tuple[int, int, int]], value: int) -> None:
    """Append ``value`` to the stride ``terms`` of a sequence: it
    extends the last term or opens a new one (what
    :meth:`IntSequence.append` and a record's occurrence terms do)."""
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
        append_term(self.terms, value)

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

    def approx_bytes(self) -> int:
        """Serialized footprint estimate: 3 varint-ish ints per term."""
        return 2 + 6 * len(self.terms)


# ---------------------------------------------------------------------------
# Nested stride blocks: the serialized form of a rank set or a leaf column.
#
# An *item* is a flat term ``(start, count, stride)`` with ``count >= 1``
# or a block ``(delta, 0, reps, items)``: ``items`` written once and
# standing for ``reps`` copies, the r-th with every start shifted by
# ``r * delta``.  The zero in the count slot is the wire tag that tells
# the two apart.

#: How deep blocks may nest.  A rank set that is a slice of a 3-D grid
#: is a block (planes) of blocks (rows) of runs.
MAX_DEPTH = 3

#: The widest window of terms a block repeats.  Bounds the builder's work
#: a term; a grid slice of 256 ranks repeats windows of 16.
_MAX_WINDOW = 32

#: The least a block header costs: delta, the zero tag, reps and the
#: item count, one byte each.
_HEADER_BYTES = 4


def _ubytes(value: int) -> int:
    """Bytes of ``value`` as an unsigned LEB128 varint."""
    return (value.bit_length() + 6) // 7 or 1


def _zbytes(value: int) -> int:
    """Bytes of ``value`` as a zigzag varint."""
    zigzag = value << 1 if value >= 0 else ~(value << 1)
    return (zigzag.bit_length() + 6) // 7 or 1


def nest(terms: list[tuple[int, int, int]], depth: int = MAX_DEPTH) -> list:
    """Items for ``terms``, greedily: at each position the block that
    saves the most bytes against writing its terms flat — every window
    of up to ``_MAX_WINDOW`` terms that repeats with one shift, for as
    long as it repeats — else the term itself; a chosen window is nested
    the same way, ``depth`` levels in all.  Deterministic, one pass a
    level, and never more bytes than ``terms`` flat: a block is taken
    only when it saves some.  Returns ``terms`` itself when no block
    pays."""
    n = len(terms)
    if depth == 0 or n < 2:
        return terms
    sizes = [0]
    sizes.extend(accumulate([
        _zbytes(start) + _ubytes(count) + _zbytes(stride)
        for start, count, stride in terms
    ]))
    out = []
    i = 0
    while i < n:
        best = 0
        start, count, stride = terms[i]
        for k in range(1, min(_MAX_WINDOW, (n - i) // 2) + 1):
            # Even covering every term left, this window saves no more.
            if sizes[n] - sizes[i + k] - _HEADER_BYTES <= best:
                break
            next_start, next_count, next_stride = terms[i + k]
            if next_count != count or next_stride != stride:
                continue
            delta = next_start - start
            j = i + 1
            end = n - k
            while j < end:
                a_start, a_count, a_stride = terms[j]
                b_start, b_count, b_stride = terms[j + k]
                if (
                    b_start - a_start != delta or b_count != a_count
                    or b_stride != a_stride
                ):
                    break
                j += 1
            reps = (j - i) // k + 1
            if reps < 2:
                continue
            saving = (
                sizes[i + k * reps] - sizes[i + k] - _zbytes(delta) - 1
                - _ubytes(reps) - _ubytes(k)
            )
            if saving > best:
                best, window, times, shift = saving, k, reps, delta
        if best:
            out.append(
                (shift, 0, times, nest(terms[i : i + window], depth - 1))
            )
            i += window * times
        else:
            out.append(terms[i])
            i += 1
    return out if len(out) < n else terms  # no block: the same list


def expand(items) -> list[tuple[int, int, int]]:
    """The flat terms ``items`` stand for.  A block of a few bytes may
    stand for any number of terms: a reader bounds the values ``items``
    cover, arithmetically, before it calls this."""
    out: list[tuple[int, int, int]] = []
    for item in items:
        if item[1]:
            out.append(item)
            continue
        delta, _, reps, inner = item
        inner = expand(inner)
        out.extend(inner)
        for r in range(1, reps):
            shift = r * delta
            out.extend([
                (start + shift, count, stride)
                for start, count, stride in inner
            ])
    return out
