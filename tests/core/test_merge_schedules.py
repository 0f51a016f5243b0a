"""Schedule independence of the inter-process merge.

Welford stat combination is float non-associative, so a naive merge
gives schedule-dependent bytes.  The merge defers stat materialization
and always folds per-rank sources in ascending rank order, which makes
``fold`` and ``tree`` produce byte-identical serialized traces."""

import sys

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402

NPROCS = 8

SRC = """
func main() {
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < 6; i = i + 1) {
    if (rank % 2 == 0) {
      if (rank + 1 < size) {
        mpi_send(rank + 1, 256, 5);
        mpi_recv(rank + 1, 256, 6);
      }
    } else {
      mpi_recv(rank - 1, 256, 5);
      mpi_send(rank - 1, 256, 6);
    }
    mpi_barrier();
  }
}
"""


def _ctts():
    _, _, cyp, _ = run_traced(SRC, NPROCS)
    return [cyp.ctt(r) for r in range(NPROCS)]


class TestScheduleByteIdentity:
    def test_fold_tree_identical_bytes(self):
        ctts = _ctts()
        blob_fold = serialize.dumps(merge_all(ctts, schedule="fold"))
        blob_tree = serialize.dumps(merge_all(ctts, schedule="tree"))
        assert blob_tree == blob_fold

    def test_roundtrip_is_canonical(self):
        # dumps() -> loads() -> dumps() must reach a fixed point after one
        # cycle: group order in the file is canonical (by lowest member
        # rank), not schedule order.  (The first cycle may shrink the
        # string table — loop/branch names are not serialized — so the
        # fixed point is asserted on the reloaded form.)
        ctts = _ctts()
        blob = serialize.dumps(merge_all(ctts, schedule="fold"))
        blob2 = serialize.dumps(serialize.loads(blob))
        assert serialize.dumps(serialize.loads(blob2)) == blob2


class TestApiPlumbing:
    def test_run_merge_is_cached(self):
        from repro.core.api import run_cypress
        from repro.workloads import get

        w = get("cg")
        run = run_cypress(w.source, 8, defines=w.defines(8, 0.2))
        merged = run.merge(schedule="tree")
        assert merged.nranks_merged == 8
        # cached — second call returns the same object
        assert run.merge() is merged
