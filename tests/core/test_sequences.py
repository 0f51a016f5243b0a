"""Stride-tuple sequence tests (unit + property-based)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequences import IntSequence, SequenceCursor


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
        import pytest

        cur = SequenceCursor(IntSequence())
        with pytest.raises(StopIteration):
            cur.next()


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
        assert seq.term_count() <= len(values) // 2

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
        assert seq.term_count() <= max(1, len(_greedy_reference_terms(values)))


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
        assert seq.term_count() <= max(1, len(values))
