"""A spilled rank reloads with its record index whole (docs/INTERNALS.md §14).

Each leaf's ``params_index`` is the leaf's only record index: a spill
snapshot does not store it, and ``decode_rank_state`` rebuilds it from
the records' keys, so a reloaded rank builds a key only for a parameter
set it has never seen.  Driven here on the ``budget_cg`` benchmark shape:
cg on 8 ranks at scale 3, fed round-robin in 4096-item chunks under a
1-byte memory budget, so every rank spills and reloads between chunks.
"""

import pytest

from repro.core import serialize
from repro.core.intra import CypressConfig, IntraProcessCompressor
from repro.driver import run_compiled
from repro.mpisim.pmpi import StreamCaptureSink
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS

NPROCS = 8
CHUNK = 4096


@pytest.fixture(scope="module")
def capture():
    w = WORKLOADS["cg"]
    compiled = compile_minimpi(w.source)
    sink = StreamCaptureSink()
    run_compiled(compiled, NPROCS, defines=w.defines(NPROCS, 3), tracer=sink)
    return compiled.cst, sink.streams


def _chunked(comp, streams, size=CHUNK):
    """Every rank round-robin, ``size`` items at a time, each sealed at
    its end."""
    at = 0
    live = sorted(streams)
    while live:
        for rank in list(live):
            chunk = streams[rank][at:at + size]
            if chunk:
                comp.ingest_stream(rank, chunk)
            else:
                comp.seal_rank(rank)
                live.remove(rank)
        at += size


def _bytes(comp, nranks=NPROCS):
    blob = serialize.dumps(comp.merged(nranks=nranks))
    comp.close_spill()
    return blob


def test_reload_restores_every_leaf_index(capture):
    cst, streams = capture
    unbudgeted = IntraProcessCompressor(cst)
    _chunked(unbudgeted, streams)
    expected = _bytes(unbudgeted)

    comp = IntraProcessCompressor(cst, CypressConfig(memory_budget_bytes=1))
    comp.enable_incremental_fold(nranks=NPROCS, domain=range(NPROCS))
    reload = comp.table._reload
    reloaded = []

    def checked_reload(rank):
        st = reload(rank)
        for v in st.ctt.vertices():
            if v.records is not None:
                assert len(v.params_index) == len(v.records), v.gid
                assert v.last_params is None
        reloaded.append(rank)
        return st

    comp.table._reload = checked_reload
    _chunked(comp, streams)
    counters = comp.metrics_counters()
    bc = comp.budget_counters
    assert bc.spills >= 1 and bc.reloads >= 1
    assert len(reloaded) == bc.reloads
    # A key per record created: the reloads built none.
    assert counters["intra.key_builds"] == counters["intra.records"]
    assert _bytes(comp) == expected


# Rank 0 posts wildcard irecvs; the others send.  Two parameter sets
# resolve, each twice or more, so a resolved record is found again
# through the index — after a reload, too.
WILDCARD_IRECV = """
func main() {
  var rank = mpi_comm_rank();
  if (rank == 0) {
    for (var i = 0; i < 12; i = i + 1) {
      var r = mpi_irecv(-1, 8, 0);
      mpi_wait(r);
      var s = mpi_isend(1 + i % 2, 16, 1);
      mpi_wait(s);
    }
  } else {
    for (var i = 0; i < 6; i = i + 1) {
      mpi_send(0, 8, 0);
      mpi_recv(0, 16, 1);
    }
  }
}
"""


@pytest.mark.parametrize("size", [3, 5, 17])
def test_resolved_wildcards_are_indexed_across_reloads(size):
    compiled = compile_minimpi(WILDCARD_IRECV)
    sink = StreamCaptureSink()
    run_compiled(compiled, 3, tracer=sink)
    unbudgeted = IntraProcessCompressor(compiled.cst)
    _chunked(unbudgeted, sink.streams, size)
    expected = _bytes(unbudgeted, 3)

    # A rank with a wildcard in flight stays resident; the budget still
    # prices its pending record, which has no key yet.
    comp = IntraProcessCompressor(
        compiled.cst, CypressConfig(memory_budget_bytes=1)
    )
    comp.enable_incremental_fold(nranks=3, domain=range(3))
    _chunked(comp, sink.streams, size)
    counters = comp.metrics_counters()
    assert comp.budget_counters.reloads >= 1
    # The two resolved records got their keys at completion, not from
    # the walk, and no reload built one.
    assert counters["intra.key_builds"] == counters["intra.records"] - 2
    assert _bytes(comp, 3) == expected
