"""Baseline binary-encoding tests (size-comparison fairness)."""

import gzip as _gzip
import sys

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.baselines.rsd import EventTerm  # noqa: E402
from repro.baselines.scalatrace import ScalaTraceCompressor, merge_all_queues  # noqa: E402
from repro.baselines.scalatrace2 import ScalaTrace2Compressor, merge_all_st2  # noqa: E402
from repro.baselines.serialize import scalatrace2_dumps, scalatrace_dumps  # noqa: E402
from repro.core.serialize import ByteWriter  # noqa: E402
from repro.driver import run_compiled  # noqa: E402
from repro.mpisim.pmpi import MultiSink  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402

SRC = """
func main() {
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < n; i = i + 1) {
    if (rank < size - 1) { mpi_send(rank + 1, 256, 1); }
    if (rank > 0) { mpi_recv(rank - 1, 256, 1); }
    mpi_allreduce(8);
  }
}
"""


def compressors(nprocs, defines):
    compiled = compile_minimpi(SRC, cypress=False)
    st = ScalaTraceCompressor()
    st2 = ScalaTrace2Compressor()
    run_compiled(compiled, nprocs, defines=defines, tracer=MultiSink([st, st2]))
    return st, st2


class TestScalaTraceDumps:
    def test_nonempty_and_deterministic(self):
        st, _ = compressors(4, {"n": 10})
        merged = merge_all_queues({r: st.queue(r) for r in range(4)})
        a = scalatrace_dumps(merged)
        b = scalatrace_dumps(merged)
        assert a == b and len(a) > 20

    def test_size_flat_in_iterations(self):
        sizes = []
        for n in (10, 1000):
            st, _ = compressors(4, {"n": n})
            merged = merge_all_queues({r: st.queue(r) for r in range(4)})
            sizes.append(len(scalatrace_dumps(merged)))
        # Only RSD counts and the stats varints grow.
        assert sizes[1] <= sizes[0] + 32

    def test_a_stats_block_is_written_once(self):
        # The CYPRESS writer's stats table, so that Fig. 15 compares
        # representations: events name their timing stats by index.
        st, _ = compressors(4, {"n": 50})
        merged = merge_all_queues({r: st.queue(r) for r in range(4)})

        def stats_of(term):
            if isinstance(term, EventTerm):
                yield term.duration
                yield term.pre_gap
            else:
                for inner in term.body:
                    yield from stats_of(inner)

        def block(stats):  # count | mean | m2, as the table holds it
            w = ByteWriter()
            w.u(stats.count)
            w.f(stats.mean)
            w.f(stats.m2)
            return w.bytes()

        blocks = [
            block(s) for slot in merged for _, term in slot.variants
            for s in stats_of(term)
        ]
        assert len(set(blocks)) < len(blocks)
        data = scalatrace_dumps(merged)
        for block in set(blocks):
            assert data.count(block) == 1

    def test_gzip_variant(self):
        st, _ = compressors(4, {"n": 50})
        merged = merge_all_queues({r: st.queue(r) for r in range(4)})
        gz = scalatrace_dumps(merged, gzip=True)
        assert gz[:2] == b"\x1f\x8b"
        assert _gzip.decompress(gz) == scalatrace_dumps(merged)


class TestScalaTrace2Dumps:
    def test_nonempty(self):
        _, st2 = compressors(4, {"n": 10})
        merged = merge_all_st2({r: st2.queue(r) for r in range(4)})
        assert len(scalatrace2_dumps(merged)) > 20

    def test_elastic_values_cost_bytes(self):
        # Varying sizes inflate the value sequences, hence the encoding.
        varied = SRC.replace("256", "256 + 8 * i")
        compiled = compile_minimpi(varied, cypress=False)
        st2 = ScalaTrace2Compressor()
        run_compiled(compiled, 4, defines={"n": 40}, tracer=st2)
        merged_varied = merge_all_st2({r: st2.queue(r) for r in range(4)})
        _, st2_flat = compressors(4, {"n": 40})
        merged_flat = merge_all_st2({r: st2_flat.queue(r) for r in range(4)})
        # Strided varying values stay compact (that's the elastic win) but
        # can never be cheaper than constants.
        assert len(scalatrace2_dumps(merged_varied)) >= len(
            scalatrace2_dumps(merged_flat)
        )
