"""Wildcard-receive completion merging under both record-matching
policies: the unbounded index (``window=None``, the default) and the
paper's last-record comparison (``window=1``).

A resolved wildcard receive re-enters the merge path late — after its
source is known — so its key must be built exactly like an eager
record's key, and the merge must work whichever policy is active."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import assert_replay_exact, run_traced  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.intra import CypressConfig  # noqa: E402
from repro.core.timing import HIST  # noqa: E402
from tests.record_fields import duration, pre_gap  # noqa: E402

# Rank 0 posts wildcard irecvs in a loop; ranks 1 and 2 each send six
# same-shaped messages, so resolved records differ only by source rank.
SRC = """
func main() {
  var rank = mpi_comm_rank();
  if (rank == 0) {
    for (var i = 0; i < 12; i = i + 1) {
      var r = mpi_irecv(-1, 8, 0);
      mpi_wait(r);
    }
  } else {
    for (var i = 0; i < 6; i = i + 1) { mpi_send(0, 8, 0); }
  }
}
"""


def _irecv_records(cyp):
    for v in cyp.ctt(0).preorder():
        if v.op == "MPI_Irecv":
            return v.records
    raise AssertionError("no MPI_Irecv leaf")


class TestWildcardCompletionMerging:
    def test_unbounded_window_merges_per_source(self):
        _, rec, cyp, _ = run_traced(SRC, 3)
        records = _irecv_records(cyp)
        # Position-independent merging: one record per source rank.
        assert len(records) == 2
        assert sorted(r.length for r in records) == [6, 6]
        assert not any(r.pending for r in records)
        assert all(r.key[9] for r in records)  # wildcard flag preserved
        assert_replay_exact(rec, cyp, 3)
        assert_replay_exact(rec, cyp, 3, merged=True)

    def test_window_one_merges_only_adjacent(self):
        _, rec, cyp, _ = run_traced(SRC, 3, config=CypressConfig(window=1))
        records = _irecv_records(cyp)
        # Last-record-only comparison cannot collapse interleaved sources
        # to one record per source, but every occurrence must be kept...
        assert sum(r.length for r in records) == 12
        assert len(records) >= 2
        assert not any(r.pending for r in records)
        # ...and replay must stay exact, per-rank and merged.
        assert_replay_exact(rec, cyp, 3)
        assert_replay_exact(rec, cyp, 3, merged=True)

    def test_single_source_collapses_under_both_policies(self):
        src = """
        func main() {
          var rank = mpi_comm_rank();
          if (rank == 0) {
            for (var i = 0; i < 10; i = i + 1) {
              var r = mpi_irecv(-1, 8, 0);
              mpi_wait(r);
            }
          } else {
            for (var i = 0; i < 10; i = i + 1) { mpi_send(0, 8, 0); }
          }
        }
        """
        for config in (None, CypressConfig(window=1)):
            _, rec, cyp, _ = run_traced(src, 2, config=config)
            records = _irecv_records(cyp)
            # One source -> identical resolved keys are always adjacent,
            # so even window=1 folds them into a single record.
            assert len(records) == 1
            assert records[0].length == 10
            assert_replay_exact(rec, cyp, 2, merged=True)


class TestWildcardHistogramMode:
    """A pending wildcard record must be born in the configured timing
    mode: built with the ``meanstd`` default it silently lost its
    histogram, and ``merge_from`` against a ``hist`` record of the same
    key would refuse to mix the modes."""

    @pytest.mark.parametrize("window", [None, 1])
    def test_every_record_keeps_its_histogram(self, window):
        config = CypressConfig(window=window, timing_mode=HIST)
        _, rec, cyp, _ = run_traced(SRC, 3, config=config)
        assert _irecv_records(cyp)
        for rank in range(3):
            for v in cyp.ctt(rank).preorder():
                for record in v.records or ():
                    for stats in (duration(record), pre_gap(record)):
                        assert stats.mode == HIST, (rank, v.gid, v.op)
                        assert sum(stats.bins) == record.length
        merged = assert_replay_exact(rec, cyp, 3, merged=True)
        assert_replay_exact(rec, cyp, 3)
        blob = serialize.dumps(merged)
        assert serialize.dumps(serialize.loads(blob)) == blob
