"""Crash-safe container (v8): checksummed sections, loud corruption,
salvage, old-version handling (v7 read, v6 and older refused), and
atomic save."""

import os
import sys

import pytest

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.core import TraceFormatError, serialize  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402

SRC = """
func main() {
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < 5; i = i + 1) {
    if (rank < size - 1) { mpi_send(rank + 1, 32, 2); }
    if (rank > 0) { mpi_recv(rank - 1, 32, 2); }
    mpi_barrier();
  }
}
"""


@pytest.fixture(scope="module")
def merged():
    _, _, cyp, _ = run_traced(SRC, 3)
    return merge_all([cyp.ctt(r) for r in range(3)])


@pytest.fixture(scope="module")
def blob(merged):
    return serialize.dumps(merged)


class TestRoundTrip:
    def test_version_byte(self, blob):
        assert blob[:4] == b"CYTR"
        assert blob[4] == 9

    def test_redump_identity(self, blob):
        assert serialize.dumps(serialize.loads(blob)) == blob

    def test_no_salvage_info_on_clean_load(self, blob):
        assert serialize.loads(blob).salvage_info is None
        assert serialize.loads(blob, salvage=True).salvage_info[
            "complete"
        ] is True

    def test_chunked_dump_loads_identically(self, merged, blob):
        small = serialize.dumps(merged, chunk_bytes=64)
        assert len(small) > len(blob)  # more sections, more framing
        assert serialize.dumps(serialize.loads(small)) == blob

    def test_gzip_roundtrip(self, merged, blob):
        packed = serialize.dumps(merged, gzip=True)
        assert serialize.dumps(serialize.loads(packed)) == blob


class TestV4Compat:
    def test_v4_file_is_unsupported(self, blob):
        # The unframed v4 container is gone: its version byte alone
        # decides, whatever follows.
        legacy = blob[:4] + b"\x04" + blob[5:]
        with pytest.raises(
            TraceFormatError, match="unsupported trace version 4"
        ):
            serialize.loads(legacy)
        with pytest.raises(TraceFormatError, match="version 4"):
            serialize.loads(legacy, salvage=True)

    def test_v5_file_is_unsupported(self, blob):
        # The v5 reader (topology without branch ast ids) is gone.
        legacy = blob[:4] + b"\x05" + blob[5:]
        for salvage in (False, True):
            with pytest.raises(
                TraceFormatError, match="unsupported trace version 5"
            ):
                serialize.loads(legacy, salvage=salvage)

    def test_v6_file_is_unsupported(self, blob):
        # The v6 reader (records as rows of every field) is gone.
        legacy = blob[:4] + b"\x06" + blob[5:]
        for salvage in (False, True):
            with pytest.raises(
                TraceFormatError, match="unsupported trace version 6"
            ):
                serialize.loads(legacy, salvage=salvage)

    def test_unknown_version_rejected(self, blob):
        bad = bytearray(blob)
        bad[4] = 10
        with pytest.raises(TraceFormatError, match="version"):
            serialize.loads(bytes(bad))


class TestLoudCorruption:
    def test_every_single_bit_flip_is_detected(self, blob):
        for pos in range(len(blob)):
            for bit in range(8):
                bad = bytearray(blob)
                bad[pos] ^= 1 << bit
                if bad[:5] == b"CYTR\x08":
                    # The version byte is outside every checksum, and a
                    # v9 tree without a TOR peer or a job size beyond
                    # its ranks is, byte for byte, a v8 one: the flip
                    # reads the same tree.
                    assert serialize.dumps(serialize.loads(bytes(bad))) == blob
                    continue
                with pytest.raises(ValueError):
                    serialize.loads(bytes(bad))

    def test_every_truncation_is_detected(self, blob):
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                serialize.loads(blob[:cut])

    def test_trailing_garbage_rejected(self, blob):
        with pytest.raises(TraceFormatError, match="trailing"):
            serialize.loads(blob + b"\x00")

    def test_gzip_corruption_detected(self, merged):
        packed = serialize.dumps(merged, gzip=True)
        with pytest.raises(ValueError):
            serialize.loads(packed[: len(packed) // 2])


class TestSalvage:
    def test_salvage_recovers_vertex_prefix(self, merged, blob):
        small = serialize.dumps(merged, chunk_bytes=64)
        nvertices = len(list(merged.root.preorder()))
        # Cutting progressively more of the tail recovers progressively
        # fewer vertices — never garbage, never an exception once the
        # header and topology survive.
        last = nvertices + 1
        recovered_some_partial = False
        for cut in range(len(small) - 1, len(small) // 2, -7):
            got = serialize.loads(small[:cut], salvage=True)
            info = got.salvage_info
            assert info["complete"] is False
            assert info["vertices_total"] == nvertices
            assert info["vertices_with_payload"] <= last
            last = info["vertices_with_payload"]
            if 0 < info["vertices_with_payload"] < nvertices:
                recovered_some_partial = True
                # The recovered prefix carries real payload.
                covered = list(got.root.preorder())[
                    : info["vertices_with_payload"]
                ]
                assert any(v.groups for v in covered)
        assert recovered_some_partial

    def test_salvaged_bytes_reload(self, merged):
        small = serialize.dumps(merged, chunk_bytes=64)
        got = serialize.loads(small[:-10], salvage=True)
        # A salvaged tree serializes to a fully valid (complete) file.
        again = serialize.loads(serialize.dumps(got))
        assert again.salvage_info is None

    def test_header_loss_is_fatal_even_in_salvage(self, blob):
        with pytest.raises(TraceFormatError):
            serialize.loads(blob[:6], salvage=True)

    def test_bitflip_in_tail_salvages(self, merged):
        small = serialize.dumps(merged, chunk_bytes=64)
        bad = bytearray(small)
        bad[-5] ^= 0x10
        with pytest.raises(ValueError):
            serialize.loads(bytes(bad))
        got = serialize.loads(bytes(bad), salvage=True)
        assert got.salvage_info["complete"] is False

    def test_gzip_truncation_salvages(self, merged):
        packed = serialize.dumps(merged, gzip=True)
        got = serialize.loads(packed[:-6], salvage=True)
        assert got.salvage_info is not None


class TestAtomicSave:
    def test_save_load_roundtrip(self, merged, blob, tmp_path):
        path = tmp_path / "trace.cyp"
        nbytes = serialize.save(merged, str(path))
        assert nbytes == len(blob)
        assert path.read_bytes() == blob
        assert serialize.dumps(serialize.load(str(path))) == blob
        assert not (tmp_path / "trace.cyp.tmp").exists()

    def test_failed_replace_preserves_existing_file(
        self, merged, blob, tmp_path, monkeypatch
    ):
        path = tmp_path / "trace.cyp"
        path.write_bytes(blob)

        def boom(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk on fire"):
            serialize.save(merged, str(path))
        monkeypatch.undo()
        assert path.read_bytes() == blob  # original untouched
        assert not (tmp_path / "trace.cyp.tmp").exists()

    def test_load_salvage_flag(self, merged, tmp_path):
        small = serialize.dumps(merged, chunk_bytes=64)
        path = tmp_path / "cut.cyp"
        path.write_bytes(small[:-10])
        with pytest.raises(TraceFormatError):
            serialize.load(str(path))
        got = serialize.load(str(path), salvage=True)
        assert got.salvage_info["complete"] is False


class TestHeaderTruncationSalvage:
    """Satellite: files torn at or before the end of the 5-byte
    container header (magic + version) hold zero section bytes, so
    ``loads(salvage=True)`` returns a clean *empty* salvage result with
    ``salvage_info`` instead of raising — while strict mode, torn
    header *sections* (blob[:6], pinned above), and never-a-trace
    garbage all still fail loudly."""

    @pytest.mark.parametrize("n", [0, 1, 4, 5])
    def test_boundary_truncations_salvage_to_empty(self, blob, n):
        got = serialize.loads(blob[:n], salvage=True)
        info = got.salvage_info
        assert info["complete"] is False
        assert info["sections_recovered"] == 0
        assert info["vertices_with_payload"] == 0
        assert info["error"]
        assert got.nranks_merged == 0

    @pytest.mark.parametrize("n", [0, 1, 4, 5])
    def test_boundary_truncations_strict_still_raise(self, blob, n):
        with pytest.raises(TraceFormatError):
            serialize.loads(blob[:n])

    def test_garbage_stays_fatal_even_in_salvage(self):
        with pytest.raises(TraceFormatError):
            serialize.loads(b"???", salvage=True)
        with pytest.raises(TraceFormatError):
            serialize.loads(b"NOPE" + bytes(16), salvage=True)
