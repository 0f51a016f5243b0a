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

from repro.core import TraceFormatError, serialize  # noqa: E402
from repro.core.inter import Group, merge_all  # noqa: E402
from repro.core.intra import CypressConfig  # noqa: E402
from repro.core.sequences import IntSequence  # noqa: E402
from repro.core.timing import TimeStats  # noqa: E402
from repro.static.cst import BRANCH, CALL, LOOP  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data"
GOLDEN_FIG11 = DATA / "golden_fig11_v7.cyp"

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


def _edit_extremes(data, merged):
    """Push the field values no generated program reaches into
    ``merged`` — at most one group a vertex, with values no untouched
    group holds, so groups at a vertex stay distinct."""
    spare_rank = merged.nranks_merged
    merged.nranks_merged += 1  # the rank that emitted nothing
    for v in merged.vertices():
        if not v.groups:
            if v.kind in (CALL, LOOP, BRANCH) and data.draw(st.booleans()):
                # an empty payload, as a rank that never got here has
                empty = Group(
                    merged.interns.intern(("empty", v.gid)), [spare_rank],
                    counts=IntSequence() if v.kind == LOOP else None,
                    visits=IntSequence() if v.kind == BRANCH else None,
                    records=[] if v.kind == CALL else None,
                )
                v.groups[empty.signature] = empty
            continue
        group = v.sorted_groups()[0]
        if v.kind != CALL or not data.draw(st.booleans()):
            continue
        rec = group.records[data.draw(
            st.integers(0, len(group.records) - 1)
        )]
        op = rec.key[0]
        rec.key = (
            op, data.draw(_PEER), data.draw(_PEER), data.draw(_NEGATIVE),
            data.draw(_NEGATIVE), data.draw(_BIG), data.draw(_BIG),
            data.draw(st.integers(0, 2**16)), data.draw(_NEGATIVE),
            data.draw(st.booleans()), data.draw(_GIDS),
            data.draw(st.integers(-1, 2**16)),
        )
        rec.occurrences = IntSequence.from_values(
            data.draw(st.lists(st.integers(0, 2**33), max_size=6))
        )
        stats = rec.duration
        stats.mean, stats.m2, stats.minimum, stats.maximum = data.draw(
            st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4)
        )
        # count == 0: extremes of +-inf here, 0.0 in the file
        rec.pre_gap = TimeStats(mode=stats.mode)


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


class TestRankSetBound:
    def test_oversized_rank_set_is_refused_cheaply(self):
        merged = serialize.loads(GOLDEN_FIG11.read_bytes())
        group = next(
            g for v in merged.vertices() for g in v.groups.values()
        )
        # What ``dumps`` writes for the group's members: one stride term,
        # six bytes, every section checksum valid.
        group._rank_seq = IntSequence(terms=[(0, 10**11, 1)], length=10**11)
        # before the check, a 10**11-element list
        assert_refused_cheaply(serialize.dumps(merged), r"vertex \d+: a group")

    def test_full_membership_still_loads(self):
        blob = GOLDEN_FIG11.read_bytes()
        merged = serialize.loads(blob)
        assert max(
            len(g.ranks) for v in merged.vertices() for g in v.groups.values()
        ) == merged.nranks_merged


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
    "empty term": (_one_term(0), r"covers 0 value\(s\)"),
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
    return serialize.loads((DATA / "golden_single_v7.cyp").read_bytes())


class TestLeafBounds:
    """What a version-7 leaf block or stats table declares is checked
    against what its chunk can hold before anything of that size is
    built, and an index is unsigned before it indexes."""

    @pytest.mark.parametrize("name", sorted(_BAD_LEAVES))
    def test_bad_leaf_is_refused_cheaply(self, name, one_leaf, monkeypatch):
        body, match = _BAD_LEAVES[name]

        def write_leaf(w, records, strings, defaults, stats):
            for rec in records:  # the table an honest block would leave
                stats.add(rec.duration)
                stats.add(rec.pre_gap)
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
    if kind != 3:  # PAYLOAD
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
    ])
    def test_payload_flips_load_or_raise_trace_format_error(
        self, golden, masks, limit
    ):
        # A flipped bit behind a recomputed CRC reaches the body decoder
        # itself: it may yield a (wrong) tree or TraceFormatError, never
        # another exception, a hang or a large allocation.
        out = subprocess.run(
            [sys.executable, "-c", _RESEALED_SWEEP, str(DATA / golden), masks],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
            env={"PYTHONPATH": "src"},
        )
        assert out.returncode == 0, out.stderr
        loaded, refused, seconds = out.stdout.split()
        assert int(loaded) > 0 and int(refused) > 0
        assert float(seconds) < limit
