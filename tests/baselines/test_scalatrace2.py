"""ScalaTrace-2 baseline tests: elastic terms, loop-agnostic merge,
lossy summarization."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import truth_signatures  # noqa: E402

from repro.baselines.scalatrace2 import (  # noqa: E402
    ElasticEvent,
    ElasticRSD,
    ScalaTrace2Compressor,
    elastic_shape,
    expand_intra,
    expand_rank_st2,
    merge_all_st2,
)
from repro.core.sequences import IntSequence  # noqa: E402
from repro.driver import run_compiled  # noqa: E402
from repro.mpisim.pmpi import MultiSink, RecordingSink  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402


def run_st2(source, nprocs, defines=None):
    compiled = compile_minimpi(source, cypress=False)
    rec = RecordingSink()
    st2 = ScalaTrace2Compressor()
    run_compiled(compiled, nprocs, defines=defines, tracer=MultiSink([rec, st2]))
    return rec, st2


VARIED_SIZES = """
func main() {
  for (var i = 0; i < 10; i = i + 1) {
    mpi_bcast(0, 64 + 8 * i);
  }
}
"""


class TestElasticCompression:
    def test_varying_sizes_fold_into_one_slot(self):
        # This is what plain ScalaTrace cannot do (see test_scalatrace).
        rec, st2 = run_st2(VARIED_SIZES, 2)
        queue = st2.queue(0)
        assert len(queue) == 1
        assert isinstance(queue[0], ElasticRSD)
        (slot,) = queue[0].body
        assert slot.sizes.to_list() == [64 + 8 * i for i in range(10)]
        assert len(slot.sizes.terms) == 1  # stride-compressed values

    def test_expansion_reconstructs_varied_sizes(self):
        rec, st2 = run_st2(VARIED_SIZES, 2)
        assert expand_intra(st2.queue(0)) == truth_signatures(rec, 0)

    def test_elastic_shape_blanks_data_fields(self):
        sig = (
            "MPI_Send", ("rel", 1), ("abs", -100), 0, 0, 4096, 0, 0, -1,
            False, 0, -1,
        )
        shape = elastic_shape(sig)
        assert shape[1] == ("?", "rel")
        assert shape[5] == "?"
        sig2 = (
            "MPI_Send", ("rel", 3), ("abs", -100), 0, 0, 8192, 0, 0, -1,
            False, 0, -1,
        )
        assert elastic_shape(sig2) == shape

    def test_different_tags_do_not_merge(self):
        rec, st2 = run_st2(
            """
            func main() {
              var peer = 1 - mpi_comm_rank();
              for (var i = 0; i < 4; i = i + 1) {
                mpi_sendrecv(peer, 64, 1, peer, 64, 1);
                mpi_sendrecv(peer, 64, 2, peer, 64, 2);
              }
            }
            """,
            2,
        )
        (rsd,) = st2.queue(0)
        assert len(rsd.body) == 2  # tags differ -> separate slots

    def test_nested_elastic_rsd_counts(self):
        rec, st2 = run_st2(
            """
            func main() {
              for (var i = 0; i < 4; i = i + 1) {
                for (var j = 0; j < 3; j = j + 1) { mpi_barrier(); }
                mpi_allreduce(8);
              }
            }
            """,
            2,
        )
        assert expand_intra(st2.queue(0)) == truth_signatures(rec, 0)


class TestInterMerge:
    def test_uniform_ranks_one_bucket(self):
        rec, st2 = run_st2(
            "func main() { for (var i = 0; i < 6; i = i + 1) { mpi_allreduce(8); } }",
            8,
        )
        merged = merge_all_st2({r: st2.queue(r) for r in range(8)})
        assert not merged.lossy
        for slot in merged.slots:
            assert len(slot.variants) == 1
            assert slot.variants[0][0] == list(range(8))

    def test_lossless_when_variants_fit(self):
        src = """
        func main() {
          var rank = mpi_comm_rank();
          var size = mpi_comm_size();
          for (var i = 0; i < 8; i = i + 1) {
            if (rank < size - 1) { mpi_send(rank + 1, 64, 0); }
            if (rank > 0) { mpi_recv(rank - 1, 64, 0); }
          }
        }
        """
        rec, st2 = run_st2(src, 6)
        merged = merge_all_st2({r: st2.queue(r) for r in range(6)})
        for rank in range(6):
            assert expand_rank_st2(merged, rank) == truth_signatures(rec, rank)

    def test_variant_overflow_goes_lossy(self):
        # Every rank sends a different byte count -> variants explode past
        # the limit and the slot is summarized (the ST2 trade-off).
        src = """
        func main() {
          var rank = mpi_comm_rank();
          mpi_send(rank, 8 * (rank + 1), 0);
          mpi_recv(rank, 8 * (rank + 1), 0);
        }
        """
        rec, st2 = run_st2(src, 12)
        merged = merge_all_st2(
            {r: st2.queue(r) for r in range(12)}, variant_limit=4
        )
        assert merged.lossy
        summarized = [s for s in merged.slots if s.summarized]
        assert summarized
        # The summary still knows the distinct sizes that occurred.
        slot = summarized[0]
        (ranks, term) = slot.variants[0]
        assert ranks == list(range(12))

    def test_different_paths_stay_separate(self):
        src = """
        func main() {
          var rank = mpi_comm_rank();
          if (rank == 0) {
            mpi_send(1, 8, 0);
            mpi_recv(1, 8, 1);
          } else {
            mpi_recv(0, 8, 0);
            mpi_send(0, 8, 1);
          }
        }
        """
        rec, st2 = run_st2(src, 2)
        merged = merge_all_st2({r: st2.queue(r) for r in range(2)})
        for rank in range(2):
            assert expand_rank_st2(merged, rank) == truth_signatures(rec, rank)


class TestWildcardHandling:
    def test_wildcard_irecv_patched_on_completion(self):
        src = """
        func main() {
          var rank = mpi_comm_rank();
          if (rank == 0) {
            var r = mpi_irecv(-1, 8, 0);
            mpi_wait(r);
          } else {
            mpi_send(0, 8, 0);
          }
        }
        """
        rec, st2 = run_st2(src, 2)
        assert expand_intra(st2.queue(0)) == truth_signatures(rec, 0)


class TestExpansionDecodesOnce:
    BCAST_LOOP = """
    func main() {
      for (var i = 0; i < N; i = i + 1) {
        mpi_bcast(0, 64 + 8 * i);
      }
    }
    """

    @staticmethod
    def _to_list_calls(queue, monkeypatch):
        calls = []
        decode = IntSequence.to_list

        def counted(seq):
            calls.append(seq)
            return decode(seq)

        monkeypatch.setattr(IntSequence, "to_list", counted)
        out = expand_intra(queue)
        monkeypatch.undo()
        return len(calls), out

    def test_decodes_follow_terms_not_occurrences(self, monkeypatch):
        counts = []
        for n in (50, 400):
            rec, st2 = run_st2(self.BCAST_LOOP, 2, defines={"N": n})
            queue = st2.queue(0)
            calls, out = self._to_list_calls(queue, monkeypatch)
            assert out == truth_signatures(rec, 0)
            assert len(out) == n
            # one decode an RSD's counts, two an event slot's values
            assert calls <= 2 * len(queue) + 2 * sum(
                len(t.body) for t in queue if isinstance(t, ElasticRSD)
            )
            counts.append(calls)
        assert counts[0] == counts[1]
