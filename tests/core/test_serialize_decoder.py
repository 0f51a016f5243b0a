"""The container body decoder, where the golden files do not reach:
every field it fills (a property over random trees with the extremes
edited in), corruption that carries a *valid* checksum, and the bounds
on every length a group, leaf block or stats table declares."""

import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from helpers import run_traced, tree_fields  # noqa: E402

from repro import obs  # noqa: E402
from repro.core import TraceFormatError, serialize  # noqa: E402
from repro.core.inter import Group, merge_all  # noqa: E402
from repro.core.intra import CypressConfig  # noqa: E402
from repro.core.sequences import MAX_DEPTH, IntSequence  # noqa: E402
from repro.core.timing import TimeStats  # noqa: E402
from repro.static.cst import BRANCH, CALL, LOOP  # noqa: E402
from tests.record_fields import (  # noqa: E402
    duration,
    set_duration,
    set_occurrences,
    set_pre_gap,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data"
GOLDEN_FIG11 = DATA / "golden_fig11_v8.cyp"

# ---------------------------------------------------------------------------
# (i) loads(dumps(m)) == m, field for field.


#: Values the workloads never produce: varints of two bytes and more
#: (``2**63`` needs ten), negative zigzags, request gids.
_BIG = st.sampled_from([2**14, 2**21 + 5, 2**35, 2**63])
_NEGATIVE = st.integers(-(2**40), -1)
_GIDS = st.lists(
    st.integers(-300, 2**20), min_size=1, max_size=3
).map(tuple)
_PEER = st.tuples(st.sampled_from(["abs", "rel"]), st.integers(-2**20, 2**20))
#: The job size ``_edit_extremes`` gives a tree: every power-of-two
#: torus up to it divides it.
_JOB = 1 << 21


def _peer(torus):
    """An ABS or REL peer, or at a vertex with a torus a TOR one."""
    if torus is None:
        return _PEER
    s, m = torus
    return _PEER | st.tuples(
        st.just("tor"), st.integers(-(m // 2), m // 2), st.just(s),
        st.just(m),
    )


def _edit_extremes(data, merged):
    """Push the field values no generated program reaches into
    ``merged`` — at most one group a vertex, with values no untouched
    group holds, so groups at a vertex stay distinct."""
    spare_rank = merged.nranks_merged
    merged.nranks_merged += 1  # the rank that emitted nothing
    merged.job_size = _JOB
    for v in merged.vertices():
        if not v.groups:
            if v.kind in (CALL, LOOP, BRANCH) and data.draw(st.booleans()):
                # an empty payload, as a rank that never got here has
                v.groups.append(Group(
                    [spare_rank],
                    counts=IntSequence() if v.kind == LOOP else None,
                    visits=IntSequence() if v.kind == BRANCH else None,
                    sources=[[]] if v.kind == CALL else None,
                ))
            continue
        group = v.sorted_groups()[0]
        if v.kind != CALL or not data.draw(st.booleans()):
            continue
        rec = group.records[data.draw(
            st.integers(0, len(group.records) - 1)
        )]
        if v.torus is None and data.draw(st.booleans()):
            extent = data.draw(st.integers(1, 21))
            v.torus = (1 << data.draw(st.integers(0, 21 - extent)), 1 << extent)
        op = rec.key[0]
        peer = _peer(v.torus)
        rec.key = (
            op, data.draw(peer), data.draw(peer), data.draw(_NEGATIVE),
            data.draw(_NEGATIVE), data.draw(_BIG), data.draw(_BIG),
            data.draw(st.integers(0, 2**16)), data.draw(_NEGATIVE),
            data.draw(st.booleans()), data.draw(_GIDS),
            data.draw(st.integers(-1, 2**16)),
        )
        set_occurrences(rec, IntSequence.from_values(
            data.draw(st.lists(st.integers(0, 2**33), max_size=6))
        ))
        stats = duration(rec)
        stats.mean, stats.m2, stats.minimum, stats.maximum = data.draw(
            st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4)
        )
        set_duration(rec, stats)
        # count == 0: extremes of +-inf here, 0.0 in the file
        set_pre_gap(rec, TimeStats(mode=stats.mode))


class TestFieldForField:
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        program(allow_functions=True), st.sampled_from(["meanstd", "hist"]),
        st.data(),
    )
    def test_loads_rebuilds_every_field(self, source, timing_mode, data):
        nprocs = 4  # the generator pairs ranks by XOR
        _, _, cyp, _ = run_traced(
            source, nprocs, config=CypressConfig(timing_mode=timing_mode)
        )
        merged = merge_all([cyp.ctt(r) for r in range(nprocs)])
        _edit_extremes(data, merged)
        want = tree_fields(merged)
        for chunk_bytes in (1, 64, serialize._CHUNK_BYTES):
            blob = serialize.dumps(merged, chunk_bytes=chunk_bytes)
            back = serialize.loads(blob)
            assert tree_fields(back) == want
            assert serialize.dumps(back, chunk_bytes=chunk_bytes) == blob


# ---------------------------------------------------------------------------
# Declared lengths.


def assert_refused_cheaply(blob, match):
    """``blob`` (every checksum valid) is refused with a message
    matching ``match``, before anything large is built."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(TraceFormatError, match=match):
            serialize.loads(blob)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05
    assert peak < 1 << 20


def _nested(depth, leaf=(0, 1, 0)):
    """``depth`` blocks, each repeating the next twice, around ``leaf``."""
    item = leaf
    for _ in range(depth):
        item = (0, 0, 2, [item])
    return item


class TestRankSetBound:
    def test_oversized_rank_set_is_refused_cheaply(self):
        merged = serialize.loads(GOLDEN_FIG11.read_bytes())
        group = next(
            g for v in merged.vertices() for g in v.groups
        )
        # What ``dumps`` writes for the group's members: one stride term,
        # six bytes, every section checksum valid.
        group._rank_seq = IntSequence(terms=[(0, 10**11, 1)], length=10**11)
        # before the check, a 10**11-element list
        assert_refused_cheaply(serialize.dumps(merged), r"vertex \d+: a group")

    @pytest.mark.parametrize("items, match", [
        ([(1, 0, 2**62, [(0, 1, 0)])],
         r"a block covers 4611686018427387904 x 1 value\(s\), 4 left"),
        ([(1, 0, 5, [(0, 1, 0)])], r"a block covers 5 x 1 value\(s\), 4 left"),
        ([(0, 0, 2, [(0, 10**11, 1)])], r"a term covers 10{11}"),
        ([(0, 0, 2, [])], r"repeats 0 item\(s\) 2 time"),
        ([_nested(4)], r"nest deeper than 3"),
    ], ids=["reps 2**62", "past nranks", "term past nranks", "k = 0", "depth"])
    def test_hostile_rank_set_block_is_refused_cheaply(
        self, items, match, monkeypatch
    ):
        # Every group's rank set becomes ``items`` (fig11 has no leaf
        # columns, so nothing else is nested); 4 ranks in the header.
        merged = serialize.loads(GOLDEN_FIG11.read_bytes())
        monkeypatch.setattr(serialize, "nest", lambda terms: items)
        blob = serialize.dumps(merged)
        monkeypatch.undo()
        assert_refused_cheaply(
            blob, r"vertex \d+: a group's rank set: .*" + match
        )

    # ``nitems = 0`` loaded as groups with no member, which answer
    # every query with nothing.  A rank set is a strictly ascending
    # list of ranks >= 0: ``group_of`` bisects it.
    @pytest.mark.parametrize("items, match", [
        ([], "is empty"),
        ([(-1, 3, 1)], "names rank -1"),  # -1, 0, 1
        ([(5, 3, -1)], "is not ascending"),  # 5, 4, 3
        ([(2, 1, 0), (2, 1, 0)], "is not ascending"),  # 2, 2
        ([(1, 0, 2, [(0, 2, 1)])], "is not ascending"),  # 0, 1, 1, 2
    ], ids=["no items", "negative", "descending", "repeated", "overlapping"])
    def test_empty_negative_or_unordered_rank_set_is_refused(
        self, items, match, monkeypatch
    ):
        merged = serialize.loads(GOLDEN_FIG11.read_bytes())
        monkeypatch.setattr(serialize, "nest", lambda terms: items)
        blob = serialize.dumps(merged)
        monkeypatch.undo()
        pattern = r"vertex \d+: a group's rank set " + match + "$"
        if not items:
            # Since v9 a zero where a CALL vertex's first rank set
            # starts declares the vertex's torus: refused for its
            # stride and extent instead when the first vertex with
            # groups is a CALL one.
            pattern = r"vertex \d+: (a group's rank set is empty|torus .*)$"
        assert_refused_cheaply(blob, pattern)

    def test_full_membership_still_loads(self):
        blob = GOLDEN_FIG11.read_bytes()
        merged = serialize.loads(blob)
        assert max(
            len(g.ranks) for v in merged.vertices() for g in v.groups
        ) == merged.nranks_merged


def _expand(items):
    """Rank-set items as values, the obvious way: a term counts out its
    stride, a block repeats its items shifted ``r * delta`` each."""
    values = []
    for item in items:
        if item[1]:
            start, count, stride = item
            values += [start + i * stride for i in range(count)]
        else:
            delta, _, reps, inner = item
            once = _expand(inner)
            for r in range(reps):
                values += [v + r * delta for v in once]
    return values


@st.composite
def _ascending(draw, low=0, depth=0):
    """Rank-set items whose values ascend strictly from ``low`` or
    above, as the writer's always do: ``(items, first, last value)``."""
    items = []
    first = None
    for _ in range(draw(st.integers(1, 3 if depth == 0 else 2))):
        start = low + draw(st.integers(0, 20))
        if depth == MAX_DEPTH or draw(st.booleans()):
            count = draw(st.integers(1, 4))
            stride = draw(st.integers(1, 3))
            item = (start, count, stride)
            last = start + (count - 1) * stride
        else:
            inner, start, end = draw(_ascending(start, depth + 1))
            delta = end - start + draw(st.integers(1, 5))
            reps = draw(st.integers(2, 3))
            item = (delta, 0, reps, inner)
            last = end + (reps - 1) * delta
        items.append(item)
        first = start if first is None else first
        low = last + 1
    return items, first, last


#: At most 3 x (3 x 2)**3 x 4 = 2 592 values a rank set.
_RANK_SET = _ascending().map(lambda drawn: drawn[0])


def _dump_with_rank_sets(
    merged, rank_sets, chunk_bytes=serialize._CHUNK_BYTES
):
    """``merged`` dumped with its groups' rank sets written as
    ``rank_sets`` (item lists), in the order ``dumps`` visits groups."""
    written = iter(rank_sets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            serialize.LeafWriter, "nest", lambda self, terms: next(written)
        )
        blob = serialize.dumps(merged, chunk_bytes=chunk_bytes)
    assert next(written, None) is None
    return blob


def _rank_lists(merged):
    return [g.ranks for v in merged.vertices() for g in v.groups]


class TestRepeatedRankSets:
    """A rank set whose bytes the load has already parsed is not parsed
    again: the encoding is prefix-free, so matching bytes are the same
    rank set.  Every other rank set is parsed and bounded."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_group_gets_its_ranks(self, data):
        merged = serialize.loads(GOLDEN_FIG11.read_bytes())
        merged.nranks_merged = 1 << 15  # above every drawn value
        ngroups = len(_rank_lists(merged))
        pool = data.draw(st.lists(_RANK_SET, min_size=1, max_size=5))
        picks = data.draw(st.lists(
            st.integers(0, len(pool) - 1), min_size=ngroups, max_size=ngroups
        ))
        blob = _dump_with_rank_sets(
            merged, [pool[i] for i in picks],
            chunk_bytes=data.draw(st.sampled_from([1, 64, 1 << 16])),
        )
        registry = obs.enable()
        try:
            back = serialize.loads(blob)
        finally:
            obs.disable()
        got = _rank_lists(back)
        assert got == [_expand(pool[i]) for i in picks]
        assert len(set(map(id, got))) == len(got)  # a list each
        counters = registry.counters
        assert counters["serialize.rank_sets"] == ngroups
        assert counters["serialize.rank_sets_parsed"] == len(
            {repr(pool[i]) for i in picks}
        )

    def test_same_head_different_tail_is_parsed(self):
        merged = serialize.loads(GOLDEN_FIG11.read_bytes())
        ngroups = len(_rank_lists(merged))
        first = [(0, 2, 1), (2, 1, 0)]  # head 02 00 02 02, then 04 01 00
        rest = [(0, 2, 1), (3, 1, 0)]
        blob = _dump_with_rank_sets(merged, [first] + [rest] * (ngroups - 1))
        assert _rank_lists(serialize.loads(blob)) == (
            [[0, 1, 2]] + [[0, 1, 3]] * (ngroups - 1)
        )

    def test_same_head_different_tail_is_bounded(self):
        merged = serialize.loads(GOLDEN_FIG11.read_bytes())
        ngroups = len(_rank_lists(merged))
        first = [(0, 2, 1), (2, 1, 0)]
        rest = [(0, 2, 1), (2, 10**11, 1)]
        assert_refused_cheaply(
            _dump_with_rank_sets(merged, [first] + [rest] * (ngroups - 1)),
            r"a group's rank set: a term covers 10{11} value\(s\), 2 left",
        )

    def test_many_sets_under_one_head_read_in_linear_time(self):
        # 8 000 distinct rank sets {0, i}, all with the head 02 00 01 00:
        # each is matched against a bounded number of earlier ones, not
        # against every one parsed so far.
        n = 8000
        w = serialize.ByteWriter()
        for i in range(1, n + 1):
            w.u(2)
            serialize._write_items(w, [(0, 1, 0), (i, 1, 0)])
        data = w.bytes()
        known = {}
        pos = 0
        got = []
        started = time.perf_counter()
        for _ in range(n):
            ranks, pos = serialize._read_ranks(data, pos, n + 1, 0, known)
            got.append(ranks)
        elapsed = time.perf_counter() - started
        assert pos == len(data)
        assert got == [[0, i] for i in range(1, n + 1)]
        assert elapsed < 1.0

    def test_known_rank_set_cut_by_the_chunk_end_is_refused(self):
        merged = serialize.loads(GOLDEN_FIG11.read_bytes())
        merged.nranks_merged = 200
        # 01 ac02 03 0e: its four-byte head is known from the first group
        word = [(150, 3, 7)]
        blob = _dump_with_rank_sets(merged, [word] * len(_rank_lists(merged)))
        assert _rank_lists(serialize.loads(blob))[-1] == [150, 157, 164]
        sections, _, _ = serialize.read_sections(blob, 5, False)
        index, body = max(
            (i, body) for i, (kind, body) in enumerate(sections)
            if kind == serialize._SEC_PAYLOAD
        )
        at = body.rfind(b"\x01\xac\x02\x03\x0e")
        w = serialize.ByteWriter()
        w.raw(blob[:5])
        for i, (kind, payload) in enumerate(sections):
            serialize.write_section(
                w, kind, body[:at + 4] if i == index else payload
            )
        assert_refused_cheaply(
            w.bytes(), r"truncated or indexes out of range \(at vertex \d+\)"
        )


class TestFlatSequences:
    """Loop counts and branch visits stay flat stride terms: a zero
    count there is not a block but damage."""

    @pytest.mark.parametrize("kind", [LOOP, BRANCH])
    def test_zero_count_is_refused(self, kind):
        merged = serialize.loads(GOLDEN_FIG11.read_bytes())
        group = next(
            g for v in merged.vertices() if v.kind == kind
            for g in v.groups
        )
        seq = group.counts if kind == LOOP else group.visits
        seq.terms = [(7, 0, 1)] + seq.terms
        assert_refused_cheaply(
            serialize.dumps(merged), r"holds a term of count 0"
        )


def _one_value(col, value, nrecords=1):
    """The body of a columnar leaf block whose only written column
    holds ``value`` for every record."""
    def body(w, stats):
        w.u(nrecords << 1 | 1)
        w.u(1 << col)
        w.u(0)
        w.z(value)
    return body


def _one_term(count):
    """Two records whose tag column is one stride term of ``count``."""
    def body(w, stats):
        w.u(2 << 1 | 1)
        w.u(1 << serialize._C_TAG)
        w.u(1 << serialize._C_TAG)
        w.z(0)
        w.u(count)
        w.z(1)
    return body


def _words(*words):
    def body(w, stats):
        for word in words:
            w.u(word)
    return body


def _tag_items(items, nrecords=2):
    """``nrecords`` records whose tag column is ``items`` — stride terms
    and blocks as :func:`~repro.core.sequences.nest` gives them, written
    by the product's own item writer."""
    def body(w, stats):
        w.u(nrecords << 1 | 1)
        w.u(1 << serialize._C_TAG)
        w.u(1 << serialize._C_TAG)
        serialize._write_items(w, items)
    return body


def _stats_forms(*forms):
    """A stats table of one block in each of ``forms`` (count 1, value
    1.0), then a leaf of one row that names none of its fields."""
    def body(w, stats):
        table = serialize.ByteWriter()
        for form in forms:
            table.u(form)
            table.u(1)
            table.f(1.0)
            if form != serialize._FORM_ONE:
                table.raw(bytes(24))  # m2, minimum, maximum
            if form == serialize._FORM_HIST:
                table.u(0)  # no bins
        stats.blocks = table
        stats.index = dict.fromkeys(range(len(forms)))
        w.u(1 << 1)
        w.u(0)
    return body


#: name → (what the one leaf block of the file holds, the refusal).
#: Sizes are what a build *without* the check can survive building
#: (tens of MB, a fraction of a second) — and fail the assertions on.
_BAD_LEAVES = {
    "records beyond the chunk": (
        _words(10**5 << 1 | 1, 0, 0), r"declares 100000 record\(s\) with",
    ),
    "row mask past the last field": (
        _words(1 << 1, 1 << serialize._NCOLS), r"names a field past the last",
    ),
    "column mask past the last column": (
        _words(1 << 1 | 1, 1 << serialize._NCOLS, 0), r"past the last \(20\)",
    ),
    "sequence of an unwritten column": (
        _words(1 << 1 | 1, 0, 1), r"a sequence that is not written",
    ),
    "row stats index -1": (  # zigzag -1 is the varint 1
        _words(1 << 1, 1 << serialize._C_DUR, 1),
        r"stats index \(-1, 0 of 2\)",
    ),
    "column stats index -1": (
        _one_value(serialize._C_GAP, -1), r"stats index -1 outside",
    ),
    "column stats index past the table": (
        _one_value(serialize._C_GAP, 2), r"stats index 2 outside",
    ),
    "term beyond its column": (
        _one_term(10**6), r"covers 1000000 value\(s\), the column has 2 left",
    ),
    # A zero count is a block's tag since v8: an empty term is a block
    # that stands for nothing.
    "empty term": (
        _tag_items([(0, 0, 0, [(5, 1, 0)])]), r"repeats 1 item\(s\) 0 time",
    ),
    "block repeated once": (
        _tag_items([(0, 0, 1, [(5, 2, 0)])]), r"repeats 1 item\(s\) 1 time",
    ),
    "block of no items": (
        _tag_items([(0, 0, 2, [])]), r"repeats 0 item\(s\) 2 time",
    ),
    "block repeated 2**62 times": (
        _tag_items([(1, 0, 2**62, [(0, 1, 0)])]),
        r"leaf column 4: a block covers 4611686018427387904 x 1 value\(s\), "
        r"2 left",
    ),
    "block beyond its column": (
        _tag_items([(1, 0, 3, [(0, 1, 0)])]),
        r"a block covers 3 x 1 value\(s\), 2 left",
    ),
    "term in a block beyond its column": (
        _tag_items([(1, 0, 2, [(0, 10**6, 1)])]),
        r"leaf column 4: a term covers 1000000 value\(s\), 2 left",
    ),
    "blocks nested past the limit": (
        _tag_items([_nested(4)], nrecords=16), r"nest deeper than 3",
    ),
    "one-value stats beside a histogram block": (
        _stats_forms(serialize._FORM_HIST, serialize._FORM_ONE),
        r"mixes histogram and mean/std blocks",
    ),
    "stats block of an unknown form": (
        _stats_forms(3), r"stats block of unknown form 3",
    ),
    "occurrence terms beyond the chunk": (
        _one_value(serialize._C_NTERMS, 10**6), r"declares 1000000 value\(s\)",
    ),
    "negative occurrence term count": (
        _one_value(serialize._C_NTERMS, -1), r"lowest count -1",
    ),
    "request gids beyond the chunk": (
        _one_value(serialize._C_NGIDS, 10**6), r"declares 1000000 value\(s\)",
    ),
    "negative op index": (
        _one_value(serialize._C_OP, -1), r"negative op index",
    ),
}


@pytest.fixture
def one_leaf():
    return serialize.loads((DATA / "golden_single_v8.cyp").read_bytes())


class TestLeafBounds:
    """What a version-7 leaf block or stats table declares is checked
    against what its chunk can hold before anything of that size is
    built, and an index is unsigned before it indexes."""

    @pytest.mark.parametrize("name", sorted(_BAD_LEAVES))
    def test_bad_leaf_is_refused_cheaply(self, name, one_leaf, monkeypatch):
        body, match = _BAD_LEAVES[name]

        def write_leaf(w, records, strings, defaults, stats):
            for rec in records:  # the table an honest block would leave
                stats.add_record(rec)
            body(w, stats)

        monkeypatch.setattr(serialize, "_write_leaf", write_leaf)
        blob = serialize.dumps(one_leaf)  # every section checksum valid
        monkeypatch.undo()
        assert_refused_cheaply(blob, match)

    def test_stats_table_longer_than_its_chunk(self, one_leaf):
        data = serialize.dumps(one_leaf)
        sections, _, _ = serialize.read_sections(data, 5, False)
        w = serialize.ByteWriter()
        w.raw(data[:5])
        for kind, body in sections:
            if kind == 3:  # PAYLOAD: first vertex | nvertices | nblocks
                assert body[:3] == bytes([0, 2, 2])
                count = serialize.ByteWriter()
                count.u(10**5)
                body = body[:2] + count.bytes() + body[3:]
            serialize.write_section(w, kind, body)
        assert_refused_cheaply(w.bytes(), r"stats table declares 100000")

    def test_a_leaf_below_a_byte_a_record_still_loads(self):
        # 300 records that differ in a stride-coded tag, one occurrence
        # each at its own position, one stats block between them: the
        # columns alone take some twenty bytes.  The writer spreads one
        # of them out rather than declare more than the block holds.
        source = """
        func main() {
          var rank = mpi_comm_rank();
          for (var i = 0; i < 300; i = i + 1) {
            if (rank == 0) { mpi_send(1, 8, i); }
            if (rank == 1) { mpi_recv(0, 8, i); }
          }
        }
        """
        _, _, cyp, _ = run_traced(source, 2)
        merged = merge_all([cyp.ctt(r) for r in range(2)])
        want = tree_fields(merged)
        for chunk_bytes in (1, serialize._CHUNK_BYTES):
            blob = serialize.dumps(merged, chunk_bytes=chunk_bytes)
            assert 600 <= len(blob) < 2000  # a value a record: 54 KB
            assert tree_fields(serialize.loads(blob)) == want


class TestChunkedSalvage:
    def test_truncated_sp_recovers_every_complete_chunk(self):
        # The stats table is per chunk: a chunk decodes with nothing but
        # the header and topology, whatever was lost after it.
        merged = serialize.loads((DATA / "golden_sp_v7.cyp").read_bytes())
        want = tree_fields(merged)[1]
        blob = serialize.dumps(merged, chunk_bytes=64)
        sections, _, _ = serialize.read_sections(blob, 5, False)
        assert len(sections) > 8
        ends = []  # file offset after each section
        at = 5
        for kind, body in sections:
            framed = serialize.ByteWriter()
            serialize.write_section(framed, kind, body)
            at += framed.size()
            ends.append(at)
        covered = 0
        for index in range(2, len(sections) - 1):  # each payload chunk
            reader = serialize.ByteReader(sections[index][1])
            first, count = reader.u(), reader.u()
            assert first == covered
            covered += count
            # cut in the middle of the section after it
            cut = (ends[index] + ends[index + 1]) // 2
            got = serialize.loads(blob[:cut], salvage=True)
            info = got.salvage_info
            assert info["complete"] is False
            assert info["vertices_with_payload"] == covered
            fields = tree_fields(got)[1]
            assert fields[:covered] == want[:covered]
            assert all(not groups for _, _, groups, _, _ in fields[covered:])


# ---------------------------------------------------------------------------
# (ii) corruption behind a valid checksum.

#: Runs on its own, importing only the loader, so the address-space
#: limit measures the loader and not the test process.
_RESEALED_SWEEP = r"""
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from repro.core import TraceFormatError, serialize

data = open(sys.argv[1], "rb").read()
sections, complete, _ = serialize.read_sections(data, 5, False)
assert complete and serialize.loads(data)

def resealed(index, payload):
    w = serialize.ByteWriter()
    w.raw(data[:5])
    for i, (kind, body) in enumerate(sections):
        serialize.write_section(w, kind, payload if i == index else body)
    return w.bytes()

loaded = refused = 0
started = time.perf_counter()
for index, (kind, body) in enumerate(sections):
    if kind not in (1, 2, 3):  # HEADER, TOPOLOGY, PAYLOAD
        continue
    assert resealed(index, body) == data
    for at in range(len(body)):
        for mask in map(int, sys.argv[2].split(",")):
            damaged = bytearray(body)
            damaged[at] ^= mask
            try:
                serialize.loads(resealed(index, bytes(damaged)))
                loaded += 1
            except TraceFormatError:
                refused += 1
print(loaded, refused, time.perf_counter() - started)
"""


class TestResealedCorruption:
    # The rows, and — sp is the golden with leaves wide enough for
    # them — the columns.
    @pytest.mark.parametrize("golden, masks, limit", [
        ("golden_fig11_v7.cyp", "1,128,255", 5.0),
        ("golden_sp_v7.cyp", "1,128", 15.0),
        # blocks in rank sets and columns, one-value stats blocks
        ("golden_sp_v8.cyp", "1,128,255", 15.0),
    ])
    def test_payload_flips_load_or_raise_trace_format_error(
        self, golden, masks, limit
    ):
        # A flipped bit behind a recomputed CRC reaches the body decoder
        # itself — header string table, topology and payload alike: it
        # may yield a (wrong) tree or TraceFormatError, never another
        # exception (a UnicodeDecodeError included), a hang or a large
        # allocation.
        out = subprocess.run(
            [sys.executable, "-c", _RESEALED_SWEEP, str(DATA / golden), masks],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
            env={"PYTHONPATH": "src"},
        )
        assert out.returncode == 0, out.stderr
        loaded, refused, seconds = out.stdout.split()
        assert int(loaded) > 0 and int(refused) > 0
        assert float(seconds) < limit
