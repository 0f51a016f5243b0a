"""Binary trace format tests (varints, roundtrips, gzip)."""

import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.core import TraceFormatError, serialize  # noqa: E402
from repro.core.decompress import decompress_merged_rank  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402
from repro.core.serialize import ByteReader, ByteWriter  # noqa: E402

SRC = """
func main() {
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < 8; i = i + 1) {
    if (rank < size - 1) { mpi_send(rank + 1, 128, 3); }
    if (rank > 0) { mpi_recv(rank - 1, 128, 3); }
    mpi_allreduce(16);
  }
}
"""


def make_merged(nprocs=6, timing_mode="meanstd"):
    from repro.core.intra import CypressConfig

    _, rec, cyp, _ = run_traced(
        SRC, nprocs, config=CypressConfig(timing_mode=timing_mode)
    )
    return rec, merge_all([cyp.ctt(r) for r in range(nprocs)])


def _paired_groups(merged, back):
    """The groups of a tree and of its reload, side by side.  A loaded
    leaf group is signed by its place, not hashed by its payload, so the
    pairing is the canonical order; the keys must still agree."""
    for v_a, v_b in zip(merged.root.preorder(), back.root.preorder()):
        assert len(v_a.groups) == len(v_b.groups)
        for ga, gb in zip(v_a.sorted_groups(), v_b.sorted_groups()):
            assert ga.signature == gb.signature
            yield ga, gb


class TestVarints:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**70))
    @example(2**63)
    def test_unsigned_roundtrip(self, value):
        w = ByteWriter()
        w.u(value)
        assert ByteReader(w.bytes()).u() == value

    # Zigzag is exact for every int: 2**63 used to come back as another
    # value (a tag a program chose, behind valid checksums).
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(2**70), 2**70))
    @example(2**63)
    @example(2**63 - 1)
    @example(-(2**63))
    @example(-(2**63) - 1)
    def test_signed_roundtrip(self, value):
        w = ByteWriter()
        w.z(value)
        assert ByteReader(w.bytes()).z() == value

    @settings(max_examples=50, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_roundtrip(self, value):
        w = ByteWriter()
        w.f(value)
        assert ByteReader(w.bytes()).f() == value

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=100))
    def test_string_roundtrip(self, text):
        w = ByteWriter()
        w.s(text)
        assert ByteReader(w.bytes()).s() == text

    def test_negative_unsigned_rejected(self):
        with pytest.raises(ValueError):
            ByteWriter().u(-1)

    def test_truncated_input_rejected(self):
        w = ByteWriter()
        w.f(1.0)
        with pytest.raises(ValueError):
            ByteReader(w.bytes()[:4]).f()

    def test_truncated_varint_rejected(self):
        # Off the end mid-varint is the same error as off the end
        # mid-double, not a bare IndexError.
        for data in (b"", b"\x80", b"\xff\xff"):
            with pytest.raises(TraceFormatError, match="truncated"):
                ByteReader(data).u()
            with pytest.raises(TraceFormatError, match="truncated"):
                ByteReader(data).z()

    def test_small_values_one_byte(self):
        w = ByteWriter()
        w.u(127)
        assert len(w.bytes()) == 1

    def test_varint_boundaries(self):
        w = ByteWriter()
        for value in (0, 127, 128, 16383, 16384, 2**63, 2**70):
            w.u(value)
        assert w.bytes() == (
            b"\x00" b"\x7f" b"\x80\x01" b"\xff\x7f" b"\x80\x80\x01"
            + b"\x80" * 9 + b"\x01" + b"\x80" * 10 + b"\x01"
        )

    def test_size_tracks_every_write_and_does_not_walk(self):
        # ``dumps`` polls size() once per vertex; it used to re-sum every
        # part written so far.  Same per-call cost whatever was written:
        def cost(nwrites):
            w = ByteWriter()
            for i in range(nwrites):
                w.u(i)
                w.f(0.5)
            assert w.size() == len(w.bytes())
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(200):
                    w.size()
                best = min(best, time.perf_counter() - t0)
            return best

        assert cost(100_000) < 50 * cost(100)  # a walk would be ~1000x


class TestRoundtrip:
    def test_replay_identical_after_roundtrip(self):
        rec, merged = make_merged()
        back = serialize.loads(serialize.dumps(merged))
        for rank in range(6):
            a = [e.call_tuple() for e in decompress_merged_rank(merged, rank)]
            b = [e.call_tuple() for e in decompress_merged_rank(back, rank)]
            assert a == b
            truth = [e.replay_tuple() for e in rec.events[rank]]
            assert b == truth

    def test_gzip_variant_roundtrips(self):
        rec, merged = make_merged()
        data = serialize.dumps(merged, gzip=True)
        assert data[:2] == b"\x1f\x8b"
        back = serialize.loads(data)
        assert back.nranks_merged == merged.nranks_merged

    def test_gzip_smaller_or_close(self):
        _, merged = make_merged()
        raw = serialize.dumps(merged)
        gz = serialize.dumps(merged, gzip=True)
        assert len(gz) < len(raw) * 1.2

    def test_histogram_timing_roundtrips(self):
        rec, merged = make_merged(timing_mode="hist")
        back = serialize.loads(serialize.dumps(merged))
        for ga, gb in _paired_groups(merged, back):
            if ga.records:
                for ra, rb in zip(ga.records, gb.records):
                    assert ra.duration.bins == rb.duration.bins

    def test_timing_statistics_survive(self):
        _, merged = make_merged()
        back = serialize.loads(serialize.dumps(merged))
        for ga, gb in _paired_groups(merged, back):
            if ga.records:
                for ra, rb in zip(ga.records, gb.records):
                    assert ra.duration.count == rb.duration.count
                    assert ra.duration.mean == pytest.approx(rb.duration.mean)

    def test_file_save_load(self, tmp_path):
        _, merged = make_merged()
        path = str(tmp_path / "t.cyp")
        n = serialize.save(merged, path, gzip=True)
        import os

        assert os.path.getsize(path) == n
        back = serialize.load(path)
        assert back.group_count() == merged.group_count()


class TestFormatGuards:
    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="not a CYPRESS"):
            serialize.loads(b"XXXX12345")

    def test_bad_version_rejected(self):
        _, merged = make_merged(nprocs=2)
        data = bytearray(serialize.dumps(merged))
        data[4] = 99  # version varint byte
        with pytest.raises(ValueError, match="version"):
            serialize.loads(bytes(data))


class TestSizeScaling:
    def test_size_flat_in_iterations(self):
        """The headline property: compressed size must be (near) constant
        as the trace gets longer."""
        src = """
        func main() {
          for (var i = 0; i < n; i = i + 1) { mpi_allreduce(8); }
        }
        """
        sizes = []
        for n in (10, 100, 1000):
            _, rec, cyp, _ = run_traced(src, 4, defines={"n": n})
            merged = merge_all([cyp.ctt(r) for r in range(4)])
            sizes.append(len(serialize.dumps(merged)))
        assert sizes[2] <= sizes[0] + 8  # only the loop count varint grows
