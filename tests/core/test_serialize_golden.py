"""Golden containers: the bytes ``dumps`` writes are pinned.

``tests/data/golden_{fig11,sp,mg,single}_v7.cyp`` are what
``run_cypress`` → ``merge()`` → ``dumps`` writes at the sizes
below — a merge or writer change that moves a single byte (group order,
a float's last ulp, a varint) fails here first.  To regenerate after an
*intended* format change, write ``_fresh(...)`` to the files."""

import pathlib

import pytest

from repro.core import run_cypress, serialize
from repro.workloads import get as get_workload

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

#: name → (nprocs, scale): few loops/long streams, irregular records,
#: rank-dependent branches — and one record at one leaf, the smallest
#: file there is.
GOLDEN = {
    "fig11": (4, 1.0), "sp": (4, 0.1), "mg": (8, 0.1), "single": (2, None),
}
SINGLE = "func main() { mpi_barrier(); }\n"


def _golden(name: str) -> bytes:
    return (DATA / f"golden_{name}_v7.cyp").read_bytes()


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


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenContainers:
    def test_dumps_is_byte_stable(self, name):
        assert _fresh(name) == _golden(name)

    def test_redump_is_identity(self, name):
        blob = _golden(name)
        assert blob[4] == 7
        merged = serialize.loads(blob)
        assert merged.nranks_merged == GOLDEN[name][0]
        assert serialize.dumps(merged) == blob
        packed = serialize.dumps(merged, gzip=True)
        assert serialize.dumps(serialize.loads(packed)) == blob
