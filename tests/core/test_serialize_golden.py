"""Golden containers: the bytes ``dumps`` writes are pinned, and the
version before stays readable.

``tests/data/golden_{fig11,sp,mg,single}.cyp`` are version-6 containers
written by the commit before version 7 landed (``run_cypress`` →
``merge("tree")`` → ``dumps`` at the sizes below) and are *read*
fixtures now: they load to the tree a fresh run builds, field for field.
Their ``golden_*_v7.cyp`` twins pin what ``dumps`` writes today — a
merge or writer change that moves a single byte (group order, a float's
last ulp, a varint) fails here first — and what re-dumping a version-6
file gives.  To regenerate after an *intended* format change, write
``_fresh(...)`` to the ``_v7`` files."""

import pathlib
import sys

import pytest

sys.path.insert(0, "tests")
from helpers import tree_fields  # noqa: E402

from repro.core import run_cypress, serialize  # noqa: E402
from repro.workloads import get as get_workload  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

#: name → (nprocs, scale): few loops/long streams, irregular records,
#: rank-dependent branches — and one record at one leaf, the smallest
#: file there is.
GOLDEN = {
    "fig11": (4, 1.0), "sp": (4, 0.1), "mg": (8, 0.1), "single": (2, None),
}
SINGLE = "func main() { mpi_barrier(); }\n"


def _golden(name: str, version: int) -> bytes:
    suffix = "" if version == 6 else f"_v{version}"
    return (DATA / f"golden_{name}{suffix}.cyp").read_bytes()


def _fresh_tree(name: str, schedule: str = "tree"):
    nprocs, scale = GOLDEN[name]
    if scale is None:
        run = run_cypress(SINGLE, nprocs)
    else:
        w = get_workload(name)
        run = run_cypress(w.source, nprocs, defines=w.defines(nprocs, scale))
    return run.merge(schedule=schedule)


def _fresh(name: str, schedule: str = "tree") -> bytes:
    return serialize.dumps(_fresh_tree(name, schedule))


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenContainers:
    def test_dumps_is_byte_stable(self, name):
        assert _fresh(name) == _golden(name, 7)
        assert _fresh(name, schedule="fold") == _golden(name, 7)

    def test_redump_is_identity(self, name):
        blob = _golden(name, 7)
        assert blob[4] == 7
        merged = serialize.loads(blob)
        assert merged.nranks_merged == GOLDEN[name][0]
        assert serialize.dumps(merged) == blob
        packed = serialize.dumps(merged, gzip=True)
        assert serialize.dumps(serialize.loads(packed)) == blob

    def test_version_6_still_loads(self, name):
        old = _golden(name, 6)
        assert old[4] == 6
        merged = serialize.loads(old)
        assert tree_fields(merged) == tree_fields(_fresh_tree(name))
        assert serialize.dumps(merged) == _golden(name, 7)

    def test_no_file_grew(self, name):
        # Down to one record at one leaf, where a stats table and a
        # mask have the least to amortise over.
        assert len(_golden(name, 7)) <= len(_golden(name, 6))
