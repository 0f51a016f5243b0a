"""ScalaTrace baseline tests: RSD formation, losslessness, alignment."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import truth_signatures  # noqa: E402

from repro.baselines.rsd import RSD, EventTerm, expand  # noqa: E402
from repro.baselines.scalatrace import (  # noqa: E402
    ScalaTraceCompressor,
    _align,
    event_signature,
    lift_queue,
    merge_all_queues,
    merge_queues,
    expand_rank,
)
from repro.baselines.serialize import scalatrace_dumps  # noqa: E402
from repro.driver import run_compiled  # noqa: E402
from repro.mpisim.pmpi import MultiSink, RecordingSink  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402


def run_st(source, nprocs, defines=None, max_window=32):
    compiled = compile_minimpi(source, cypress=False)
    rec = RecordingSink()
    st = ScalaTraceCompressor(max_window=max_window)
    run_compiled(compiled, nprocs, defines=defines, tracer=MultiSink([rec, st]))
    return rec, st


class TestRSDFormation:
    def test_repeated_event_becomes_rsd(self):
        rec, st = run_st(
            "func main() { for (var i = 0; i < 20; i = i + 1) { mpi_barrier(); } }",
            2,
        )
        queue = st.queue(0)
        assert len(queue) == 1
        assert isinstance(queue[0], RSD)
        assert queue[0].count == 20

    def test_repeating_pair_becomes_rsd(self):
        rec, st = run_st(
            """
            func main() {
              for (var i = 0; i < 10; i = i + 1) {
                mpi_allreduce(8);
                mpi_barrier();
              }
            }
            """,
            2,
        )
        queue = st.queue(0)
        assert len(queue) == 1
        assert queue[0].count == 10 and len(queue[0].body) == 2

    def test_nested_loops_become_prsd(self):
        rec, st = run_st(
            """
            func main() {
              for (var i = 0; i < 5; i = i + 1) {
                mpi_bcast(0, 64);
                for (var j = 0; j < 3; j = j + 1) { mpi_barrier(); }
              }
            }
            """,
            2,
        )
        queue = st.queue(0)
        assert len(queue) == 1
        outer = queue[0]
        assert isinstance(outer, RSD) and outer.count == 5
        kinds = [type(t).__name__ for t in outer.body]
        assert kinds == ["EventTerm", "RSD"]
        assert outer.body[1].count == 3

    def test_varying_sizes_defeat_rsd(self):
        # The SP weakness: per-iteration message sizes break matching.
        rec, st = run_st(
            """
            func main() {
              for (var i = 0; i < 10; i = i + 1) {
                mpi_bcast(0, 64 + 8 * i);
              }
            }
            """,
            2,
        )
        assert len(st.queue(0)) == 10  # nothing merged

    def test_window_bounds_pattern_length(self):
        # A 4-event body exceeds max_window=2, so no RSD forms.
        src = """
        func main() {
          for (var i = 0; i < 6; i = i + 1) {
            mpi_bcast(0, 8); mpi_reduce(0, 8);
            mpi_allreduce(8); mpi_barrier();
          }
        }
        """
        _, wide = run_st(src, 2, max_window=8)
        _, narrow = run_st(src, 2, max_window=2)
        assert len(wide.queue(0)) < len(narrow.queue(0))


class TestLosslessness:
    SOURCES = [
        (
            """
            func main() {
              var rank = mpi_comm_rank();
              var size = mpi_comm_size();
              for (var i = 0; i < 12; i = i + 1) {
                if (rank < size - 1) { mpi_send(rank + 1, 64, 0); }
                if (rank > 0) { mpi_recv(rank - 1, 64, 0); }
              }
              mpi_reduce(0, 8);
            }
            """,
            6,
            None,
        ),
        (
            """
            func main() {
              var rank = mpi_comm_rank();
              for (var i = 0; i < 5; i = i + 1) {
                if (rank == 0) { mpi_recv(-1, 8, 0); } else { mpi_send(0, 8, 0); }
              }
              mpi_barrier();
            }
            """,
            2,
            None,
        ),
    ]

    @pytest.mark.parametrize("source,nprocs,defines", SOURCES)
    def test_intra_expansion_exact(self, source, nprocs, defines):
        rec, st = run_st(source, nprocs, defines)
        for rank in range(nprocs):
            assert expand(st.queue(rank)) == truth_signatures(rec, rank)

    @pytest.mark.parametrize("source,nprocs,defines", SOURCES)
    def test_inter_expansion_exact(self, source, nprocs, defines):
        rec, st = run_st(source, nprocs, defines)
        merged = merge_all_queues({r: st.queue(r) for r in range(nprocs)})
        for rank in range(nprocs):
            assert expand_rank(merged, rank) == truth_signatures(rec, rank)


class TestAlignment:
    def test_identical_sequences(self):
        pairs = _align([1, 2, 3], [1, 2, 3])
        assert pairs == [(0, 0), (1, 1), (2, 2)]

    def test_insertion(self):
        pairs = _align([1, 3], [1, 2, 3])
        matched = [(a, b) for a, b in pairs if a is not None and b is not None]
        assert len(matched) == 2

    def test_disjoint_sequences(self):
        pairs = _align([1, 2], [3, 4])
        matched = [(a, b) for a, b in pairs if a is not None and b is not None]
        assert matched == []
        assert len(pairs) == 4

    def test_merge_preserves_rank_ownership(self):
        a = EventTerm(sig=("MPI_Barrier",))
        b = EventTerm(sig=("MPI_Bcast",))
        qa = lift_queue([a], rank=0)
        qb = lift_queue([b], rank=1)
        merged = merge_queues(qa, qb)
        assert len(merged) == 2
        owners = [slot.ranks() for slot in merged]
        assert [0] in owners and [1] in owners


class TestSizes:
    def test_compressible_trace_small(self):
        rec, st = run_st(
            "func main() { for (var i = 0; i < 500; i = i + 1) { mpi_barrier(); } }",
            4,
        )
        merged = merge_all_queues({r: st.queue(r) for r in range(4)})
        assert len(scalatrace_dumps(merged)) < 500

    def test_term_equal_mismatched_types(self):
        e = EventTerm(sig=("X",))
        r = RSD(count=2, body=[EventTerm(sig=("X",))])
        assert not e.matches(r) and not r.matches(e)
        assert not r.matches(RSD(count=3, body=[EventTerm(sig=("X",))]))
