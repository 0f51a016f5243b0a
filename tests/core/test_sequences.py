"""Stride-tuple sequence tests (unit + property-based)."""

import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from helpers import E2E_SHAPES, e2e_trees  # noqa: E402
from spec_replay import SequenceCursor  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.sequences import (  # noqa: E402
    MAX_DEPTH,
    IntSequence,
    expand,
    nest,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


class TestEncoding:
    def test_empty(self):
        seq = IntSequence()
        assert len(seq) == 0 and seq.to_list() == []

    def test_constant_run_single_term(self):
        seq = IntSequence.from_values([7] * 100)
        assert seq.terms == [(7, 100, 0)]

    def test_arithmetic_run_single_term(self):
        seq = IntSequence.from_values(range(0, 20, 2))
        assert seq.terms == [(0, 10, 2)]

    def test_paper_stride_example(self):
        # Paper Fig. 11: branch taken at iterations <0, 8, 2>.
        seq = IntSequence.from_values([0, 2, 4, 6, 8])
        assert seq.terms == [(0, 5, 2)]

    def test_descending_stride(self):
        seq = IntSequence.from_values([10, 7, 4, 1])
        assert seq.terms == [(10, 4, -3)]

    def test_irregular_splits_terms(self):
        seq = IntSequence.from_values([0, 1, 2, 10, 20, 21, 22])
        assert len(seq.terms) <= 4
        assert seq.to_list() == [0, 1, 2, 10, 20, 21, 22]

    def test_nested_loop_counts_fig10(self):
        # Paper Fig. 10: inner loop counts <0, 1, 2, ..., k-1>.
        k = 12
        seq = IntSequence.from_values(range(k))
        assert seq.terms == [(0, k, 1)]

    def test_negative_values(self):
        seq = IntSequence.from_values([-5, -3, -1, 1])
        assert seq.terms == [(-5, 4, 2)]


class TestEquality:
    def test_equal_sequences(self):
        a = IntSequence.from_values([1, 2, 3])
        b = IntSequence.from_values([1, 2, 3])
        assert a == b and hash(a) == hash(b)

    def test_different_sequences(self):
        assert IntSequence.from_values([1, 2]) != IntSequence.from_values([1, 3])

    def test_not_equal_to_other_types(self):
        assert IntSequence() != [1, 2]


class TestCursor:
    def test_sequential_read(self):
        seq = IntSequence.from_values([3, 5, 5, 9])
        cur = SequenceCursor(seq)
        assert [cur.next() for _ in range(4)] == [3, 5, 5, 9]
        assert cur.exhausted()

    def test_contains_next_consumes(self):
        cur = SequenceCursor(IntSequence.from_values([0, 2, 4]))
        assert cur.contains_next(0)
        assert not cur.contains_next(1)
        assert cur.contains_next(2)

    def test_peek_does_not_consume(self):
        cur = SequenceCursor(IntSequence.from_values([7]))
        assert cur.peek() == 7
        assert cur.peek() == 7
        assert cur.next() == 7
        assert cur.peek() is None

    def test_next_on_exhausted_raises(self):
        cur = SequenceCursor(IntSequence())
        with pytest.raises(StopIteration):
            cur.next()

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(-6, 6), max_size=25),
        # None probes the value that is next, so hits are common.
        probes=st.lists(st.none() | st.integers(-7, 7), max_size=40),
    )
    def test_contains_next_is_a_match_on_the_next_value(self, values, probes):
        seq = IntSequence.from_values(values)
        expected = seq.to_list()
        cur = SequenceCursor(seq)
        at = 0
        for probe in probes:
            nxt = expected[at] if at < len(expected) else None
            if probe is None:
                probe = 0 if nxt is None else nxt
            hit = probe == nxt
            assert cur.contains_next(probe) is hit
            at += hit  # consumed exactly on a hit
            assert cur.peek() == (expected[at] if at < len(expected) else None)


def _greedy_reference_terms(values):
    """The pre-repair appender: singleton-absorb + continuation only.
    Used as the baseline the donation repair must never lose to."""
    terms: list[tuple[int, int, int]] = []
    for v in values:
        if terms:
            s, c, d = terms[-1]
            if c == 1:
                terms[-1] = (s, 2, v - s)
                continue
            if v == s + c * d:
                terms[-1] = (s, c + 1, d)
                continue
        terms.append((v, 1, 0))
    return terms


class TestDonationRepair:
    def test_alternating_pairs_compress_to_one_term_per_pair(self):
        # 0,0,1,1,2,2 — each repeated value is a stride-0 pair.  Without
        # the repair, the greedy singleton-absorb mis-pairs across value
        # boundaries and the encoding degrades.
        seq = IntSequence.from_values([0, 0, 1, 1, 2, 2])
        assert seq.to_list() == [0, 0, 1, 1, 2, 2]
        assert seq.terms == [(0, 2, 0), (1, 2, 0), (2, 2, 0)]

    def test_pair_pattern_bounded_by_half_length(self):
        values = [i // 2 for i in range(40)]
        seq = IntSequence.from_values(values)
        assert seq.to_list() == values
        assert len(seq.terms) <= len(values) // 2

    def test_mistaken_stride_head_released_to_run(self):
        # The singleton absorbs 5 under stride 5; when 6 arrives the pair
        # donates its second element so the 5,6,7,8 run is captured whole.
        seq = IntSequence.from_values([0, 5, 6, 7, 8])
        assert seq.to_list() == [0, 5, 6, 7, 8]
        assert seq.terms == [(0, 1, 0), (5, 4, 1)]

    def test_repair_chain_stays_exact(self):
        values = [0, 0, 1, 1, 2, 2, 3, 3, 10, 20, 21, 22]
        seq = IntSequence.from_values(values)
        assert seq.to_list() == values

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-64, 64)))
    def test_never_worse_than_greedy_and_exact(self, values):
        seq = IntSequence.from_values(values)
        assert seq.to_list() == values
        assert len(seq.terms) <= max(1, len(_greedy_reference_terms(values)))


def _runs(draw_ints):
    """Strategy: concatenations of constant and arithmetic runs — the
    shapes loop counts and occurrence indices actually take, which are
    exactly the inputs that drive append() through its donation-repair
    chains (a run's head gets absorbed under the wrong stride and must
    be donated onward when the continuation fails)."""
    run = st.tuples(
        st.integers(-32, 32),   # start
        st.integers(1, 8),      # count
        st.integers(-4, 4),     # stride
    ).map(lambda t: [t[0] + i * t[2] for i in range(t[1])])
    return st.lists(run, min_size=0, max_size=8).map(
        lambda rs: [v for r in rs for v in r]
    )


def _odometer(widths):
    """Row-major odometer readout: every digit sequence of a mixed-radix
    counter — the visit-index pattern of perfectly nested loops."""
    values = []
    total = 1
    for w in widths:
        total *= w
    for i in range(total):
        rem, digits = i, []
        for w in reversed(widths):
            digits.append(rem % w)
            rem //= w
        values.extend(reversed(digits))
    return values


class TestDonationRepairChains:
    """Satellite: round-trip safety of append()'s repair chains on the
    run-structured inputs the tracer actually produces."""

    @settings(max_examples=300, deadline=None)
    @given(_runs(None))
    def test_concatenated_runs_roundtrip(self, values):
        seq = IntSequence.from_values(values)
        assert seq.to_list() == values
        assert len(seq) == len(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def test_odometer_patterns_roundtrip(self, widths):
        values = _odometer(widths)
        seq = IntSequence.from_values(values)
        assert seq.to_list() == values

    @settings(max_examples=200, deadline=None)
    @given(_runs(None))
    def test_terms_are_internally_consistent(self, values):
        # length matches the terms, and every term's count is positive —
        # the invariants SequenceCursor relies on.
        seq = IntSequence.from_values(values)
        assert seq.length == sum(c for _s, c, _d in seq.terms)
        assert all(c >= 1 for _s, c, _d in seq.terms)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-6, 12), st.integers(0, 5), st.integers(-3, 3)),
            max_size=4,
        ),
        st.integers(-10, 20),
    )
    def test_first_at_least_is_the_min_over_all_values(self, terms, probe):
        # Hand-built terms: descending, constant and empty ones included,
        # which `from_values` never lays down but a file can declare.
        seq = IntSequence(terms, sum(c for _s, c, _d in terms))
        want = min((v for v in seq if v >= probe), default=None)
        assert seq.first_at_least(probe) == want

    def test_first_at_least_does_not_enumerate(self):
        seq = IntSequence([(3, 10**18, 0), (5, 10**18, 7)], 2 * 10**18)
        assert seq.first_at_least(4) == 5
        assert seq.first_at_least(20) == 26
        assert seq.first_at_least(5 + 7 * 10**18) is None

    def test_interleaved_pairs_with_tail_run(self):
        # A repair chain directly followed by material for another:
        # exercises the terms[-2] fold-back branch twice in a row.
        values = [0, 0, 1, 1, 5, 6, 7, 2, 2, 3, 3]
        seq = IntSequence.from_values(values)
        assert seq.to_list() == values


class TestCursorEdges:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=0, max_size=40))
    def test_exhaustion_contract(self, values):
        cur = SequenceCursor(IntSequence.from_values(values))
        for v in values:
            assert not cur.exhausted()
            assert cur.peek() == v
            assert cur.next() == v
        assert cur.exhausted()
        assert cur.peek() is None
        assert not cur.contains_next(0)
        import pytest

        with pytest.raises(StopIteration):
            cur.next()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=30),
        st.integers(0, 21),
    )
    def test_contains_next_mismatch_does_not_consume(self, values, probe):
        cur = SequenceCursor(IntSequence.from_values(values))
        before = cur.peek()
        hit = cur.contains_next(probe)
        if hit:
            assert before == probe
        else:
            assert cur.peek() == before

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_monotone_subset_walk(self, data):
        # Replay's usage pattern: probe a monotone superset of visit
        # indices; contains_next must accept exactly the recorded ones.
        recorded = data.draw(
            st.lists(st.integers(0, 30), unique=True, max_size=20).map(sorted)
        )
        cur = SequenceCursor(IntSequence.from_values(recorded))
        hits = [v for v in range(31) if cur.contains_next(v)]
        assert hits == recorded
        assert cur.exhausted()

    def test_contains_next_on_empty(self):
        cur = SequenceCursor(IntSequence())
        assert cur.exhausted() and cur.peek() is None
        assert not cur.contains_next(0)


class TestSizeAccounting:
    def test_compressible_cheaper_than_random(self):
        regular = IntSequence.from_values(range(1000))
        irregular = IntSequence.from_values(
            [((i * 2654435761) >> 7) % 1000 for i in range(1000)]
        )
        assert regular.approx_bytes() < irregular.approx_bytes()


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**40), 2**40)))
    def test_roundtrip(self, values):
        seq = IntSequence.from_values(values)
        assert seq.to_list() == values
        assert len(seq) == len(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(-(2**40), 2**40), st.integers(0, 40),
        st.sampled_from([0, 1, -1, 7, -13, 2**35, -(2**35)]),
    ), max_size=6))
    def test_to_list_is_the_iteration(self, terms):
        # Built a term at a time (range / repeat), not a value at a time:
        # the same list for negative, zero and large strides, empty
        # terms and the empty sequence.
        seq = IntSequence(
            terms=terms, length=sum(count for _, count, _ in terms)
        )
        assert seq.to_list() == list(iter(seq))
        assert len(seq.to_list()) == len(seq)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-1000, 1000)))
    def test_incremental_equals_bulk(self, values):
        a = IntSequence()
        for v in values:
            a.append(v)
        assert a == IntSequence.from_values(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1))
    def test_cursor_replays_sequence(self, values):
        cur = SequenceCursor(IntSequence.from_values(values))
        assert [cur.next() for _ in values] == values

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(-100, 100),
        st.integers(1, 200),
        st.integers(-10, 10),
    )
    def test_arithmetic_progressions_are_one_term(self, start, count, stride):
        seq = IntSequence.from_values(
            start + i * stride for i in range(count)
        )
        assert len(seq.terms) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**20)))
    def test_term_count_never_exceeds_length(self, values):
        seq = IntSequence.from_values(values)
        assert len(seq.terms) <= max(1, len(values))


# ---------------------------------------------------------------------------
# Nested stride blocks: the v8 container's form of rank sets and leaf
# columns (``nest`` builds it, ``expand`` undoes it).


def _written(items) -> int:
    """Bytes the container writer spends on ``items``."""
    w = serialize.ByteWriter()
    serialize._write_items(w, items)
    return w.size()


def _varint_bytes(value: int, signed: bool = False) -> int:
    if signed:
        value = value * 2 if value >= 0 else -value * 2 - 1
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


def optimal_bytes(terms, depth=MAX_DEPTH) -> int:
    """The fewest bytes any items over ``terms`` take, blocks at most
    ``depth`` deep: an interval DP over the same grammar, with no window
    bound and every block's item count charged one byte (so a lower
    bound even where a window holds 128 items or more)."""
    n = len(terms)
    if not n:
        return 0
    flat = [
        _varint_bytes(s, True) + _varint_bytes(c) + _varint_bytes(d, True)
        for s, c, d in terms
    ]
    # shift[k][i]: terms[i + k] is terms[i] moved by this much, or None.
    shift = {
        k: [
            b[0] - a[0] if a[1:] == b[1:] else None
            for a, b in zip(terms, terms[k:])
        ]
        for k in range(1, n // 2 + 1)
    }
    shallower = None
    for level in range(depth + 1):
        cost = {}
        for length in range(1, n + 1):
            for i in range(n - length + 1):
                j = i + length
                if length == 1:
                    cost[i, j] = flat[i]
                    continue
                best = min(cost[i, m] + cost[m, j] for m in range(i + 1, j))
                for k in range(1, length // 2 + 1) if level else ():
                    delta = shift[k][i]
                    if length % k or delta is None or any(
                        shift[k][m] != delta for m in range(i, j - k)
                    ):
                        continue
                    best = min(best, (
                        _varint_bytes(delta, True) + 1
                        + _varint_bytes(length // k) + 1 + shallower[i, i + k]
                    ))
                cost[i, j] = best
        shallower = cost
    return shallower[0, n]


def _depth(items) -> int:
    return max(
        (1 + _depth(item[3]) for item in items if not item[1]), default=0
    )


def _assert_codec(terms):
    items = nest(terms)
    assert expand(items) == terms
    assert _written(items) <= _written(terms)
    assert _depth(items) <= MAX_DEPTH
    if items is not terms:  # some block paid for itself
        assert _written(items) < _written(terms)
    return items


def _repeated(base, reps, shift):
    return [v + r * shift for r in range(reps) for v in base]


_PERIODIC = st.builds(
    lambda prefix, base, inner, outer, suffix: prefix + _repeated(
        _repeated(base, *inner), *outer
    ) + suffix,
    st.lists(st.integers(-50, 50), max_size=4),
    st.lists(st.integers(-20, 300), min_size=1, max_size=6),
    st.tuples(st.integers(1, 5), st.integers(-12, 12)),
    st.tuples(st.integers(1, 4), st.integers(-300, 300)),
    st.lists(st.integers(-50, 50), max_size=4),
)


def _grid_slice(dims, lows, highs):
    """Ranks ``x + X*y + X*Y*z`` of a box in an ``X×Y×Z`` grid — the
    rank set of a group of processes a 3-D stencil treats alike."""
    (nx, ny, nz) = dims
    box = [range(lo % n, max(lo % n, hi % n) + 1)
           for lo, hi, n in zip(lows, highs, dims)]
    return sorted(
        x + nx * y + nx * ny * z
        for z in box[2] for y in box[1] for x in box[0]
    )


_GRID = st.builds(
    _grid_slice,
    st.tuples(*[st.integers(1, 10)] * 3),
    st.tuples(*[st.integers(0, 9)] * 3),
    st.tuples(*[st.integers(0, 9)] * 3),
)


class TestNestedBlocks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-64, 64), max_size=40))
    def test_any_values(self, values):
        _assert_codec(IntSequence.from_values(values).terms)

    @settings(max_examples=300, deadline=None)
    @given(_PERIODIC)
    def test_shifted_repeats(self, values):
        _assert_codec(IntSequence.from_values(values).terms)

    @settings(max_examples=200, deadline=None)
    @given(_GRID)
    def test_grid_slices(self, ranks):
        _assert_codec(IntSequence.from_values(ranks).terms)

    def test_a_wide_mg_rank_set_is_one_item(self):
        # mg P=256: rows of a 3-D slice, the 16 of one plane repeated
        # on the next — 32 flat terms, 115 bytes.
        plane = (
            _repeated([1, 3, 5, 7, 9, 10, 11, 12, 13, 14, 15], 4, 16)
            + _repeated(list(range(65, 72)), 8, 8)
        )
        terms = IntSequence.from_values(_repeated(plane, 2, 128)).terms
        assert len(terms) == 32
        items = _assert_codec(terms)
        assert items == [(128, 0, 2, [
            (16, 0, 4, [(1, 5, 2), (10, 6, 1)]), (8, 0, 8, [(65, 7, 1)]),
        ])]
        assert _written(items) * 4 < _written(terms)

    def test_a_period_inside_a_period(self):
        # sp's tag column: 100..103 three apart, the four repeated seven
        # times — a block of a block of one term.
        terms = IntSequence.from_values(
            _repeated(_repeated([100, 110, 120], 4, 1), 7, 0)
        ).terms
        assert _assert_codec(terms) == [(0, 0, 7, [(1, 0, 4, [(100, 3, 10)])])]

    def test_nothing_to_repeat_is_the_terms_themselves(self):
        terms = [(0, 5, 1), (9, 2, 3), (40, 1, 0)]
        assert nest(terms) is terms
        assert nest(terms, depth=0) is terms

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_PERIODIC, _GRID))
    def test_the_optimum_is_a_lower_bound(self, values):
        terms = IntSequence.from_values(values).terms
        assert optimal_bytes(terms) <= _written(nest(terms)) <= _written(terms)


def _nested_sequences(merged) -> list:
    """Every term list the writer nests for ``merged``: rank sets and
    leaf columns."""
    seen = []
    real = serialize.nest

    def recording(terms):
        seen.append(list(terms))
        return real(terms)

    serialize.nest = recording
    try:
        serialize.dumps(merged)
    finally:
        serialize.nest = real
    return seen


_GOLDENS = ("fig11", "sp", "mg", "single")


class TestGreedyAgainstOptimum:
    """The greedy is within 1.25x of the optimum over the same grammar
    on every rank set and column the workloads write."""

    @pytest.mark.parametrize(
        "name", sorted(E2E_SHAPES) + [f"golden_{g}" for g in _GOLDENS]
    )
    def test_within_a_quarter_of_the_optimum(self, name):
        if name.startswith("golden_"):
            path = DATA / f"{name}_v8.cyp"
            trees = [serialize.loads(path.read_bytes())]
        else:
            trees = e2e_trees(name)
        sequences = {
            tuple(terms) for tree in trees for terms in _nested_sequences(tree)
        }
        assert sequences
        for terms in map(list, sequences):
            greedy = _written(nest(terms))
            assert optimal_bytes(terms) * 1.25 >= greedy, terms
