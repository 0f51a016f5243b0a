"""Golden containers: the bytes ``dumps`` writes are pinned.

``tests/data/golden_{fig11,sp,mg,single}_v9.cyp`` are what
``run_cypress`` → ``merge()`` → ``dumps`` writes at the sizes
below — a merge or writer change that moves a single byte (group order,
a float's last ulp, a varint) fails here first.  To regenerate after an
*intended* format change, write ``_fresh(...)`` to the files.

``golden_*_v8.cyp`` are what the trees were before the merge's final
pass found torus-relative peers (container v8), and ``golden_*_v7.cyp``
the same trees as container v7 (flat stride terms, four doubles a stats
block).  Both are kept as read fixtures: ``loads`` still takes them,
a v8 file redumps as itself but for its version byte, and a v7 file as
its v8 golden.  Only mg's tree holds a TOR peer, so the other three v9
goldens are their v8 files with the version byte changed."""

import pathlib

import pytest

from repro import query
from repro.core import run_cypress, serialize
from repro.core.decompress import decompress_all
from repro.static.cst import CALL
from repro.workloads import get as get_workload

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

#: name → (nprocs, scale): few loops/long streams, irregular records,
#: rank-dependent branches — and one record at one leaf, the smallest
#: file there is.
GOLDEN = {
    "fig11": (4, 1.0), "sp": (4, 0.1), "mg": (8, 0.1), "single": (2, None),
}
SINGLE = "func main() { mpi_barrier(); }\n"


def _golden(name: str, version: int = 9) -> bytes:
    return (DATA / f"golden_{name}_v{version}.cyp").read_bytes()


def _fresh_tree(name: str):
    nprocs, scale = GOLDEN[name]
    if scale is None:
        run = run_cypress(SINGLE, nprocs)
    else:
        w = get_workload(name)
        run = run_cypress(w.source, nprocs, defines=w.defines(nprocs, scale))
    return run.merge()


def _fresh(name: str) -> bytes:
    return serialize.dumps(_fresh_tree(name))


def _as_v9(blob: bytes) -> bytes:
    """A v7 or v8 tree as ``dumps`` writes it now: the version byte
    sits outside every checksummed section."""
    return blob[:4] + bytes([9]) + blob[5:]


def _answers(merged) -> tuple:
    """Every query's answer and every rank's replay."""
    nranks = merged.nranks_merged
    leaves = [v.gid for v in merged.vertices() if v.kind == CALL and v.groups]
    return (
        query.traffic(merged, group_by="vertex"),
        query.traffic(merged, group_by="op"),
        query.critical_leaves(merged),
        [query.rank_profile(merged, rank) for rank in range(nranks)],
        query.ordering(merged, leaves[0], leaves[-1], 0),
        decompress_all(merged, nranks),
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenContainers:
    def test_dumps_is_byte_stable(self, name):
        assert _fresh(name) == _golden(name)

    def test_redump_is_identity(self, name):
        blob = _golden(name)
        assert blob[4] == 9
        merged = serialize.loads(blob)
        assert merged.nranks_merged == GOLDEN[name][0]
        assert serialize.dumps(merged) == blob
        packed = serialize.dumps(merged, gzip=True)
        assert serialize.dumps(serialize.loads(packed)) == blob

    def test_v8_file_redumps_but_for_its_version_byte(self, name):
        old = _golden(name, 8)
        assert old[4] == 8
        assert serialize.dumps(serialize.loads(old)) == _as_v9(old)
        assert (_golden(name) == _as_v9(old)) == (name != "mg")

    def test_v7_file_redumps_as_its_v8_golden(self, name):
        old = _golden(name, 7)
        assert old[4] == 7
        assert len(_golden(name, 8)) < len(old)
        assert serialize.dumps(serialize.loads(old)) == _as_v9(_golden(name, 8))

    # mg's united groups hold equal stats (virtual time), so the trees
    # before and after the final pass answer alike.
    @pytest.mark.parametrize("version", [8, 9])
    def test_later_file_answers_as_the_fresh_tree(self, name, version):
        assert _answers(serialize.loads(_golden(name, version))) == _answers(
            _fresh_tree(name)
        )

    def test_v7_file_answers_as_the_fresh_tree(self, name):
        assert _answers(serialize.loads(_golden(name, 7))) == _answers(
            _fresh_tree(name)
        )
