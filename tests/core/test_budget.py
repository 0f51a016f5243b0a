"""Bounded-memory streaming compression (docs/INTERNALS.md §14).

The contract under test: with ``memory_budget_bytes`` set, the
compressor folds finished ranks into a partial merge and spills cold
ranks to disk, yet the merged container is **byte-identical** to the
unbudgeted pipeline — across deterministic bench shapes, random
hypothesis programs, and spill/evict/reload round-trips.  Plus the
live-memory estimator split.  The rank table's transitions in arbitrary
order are ``test_rank_table.py``'s.
"""

import gc
import sys
import tracemalloc
import types

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402

from repro.core import serialize
from repro.core.budget import (
    LIVE,
    SPILLED,
    BudgetCounters,
    SpillFormatError,
    SpillStore,
    encode_rank_state,
)
from repro.core.errors import MergeError, StreamMismatchError
from repro.core.inter import merge_all
from repro.core.intra import (
    CypressConfig,
    IntraProcessCompressor,
    compress_streams,
)
from repro.driver import run_compiled
from repro.mpisim.pmpi import StreamCaptureSink
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: The four bench shapes of the budget-pressure matrix.
SHAPES = ("fig11", "cg", "farm", "amr")


def _capture(source, nprocs, defines=None):
    compiled = compile_minimpi(source)
    capture = StreamCaptureSink()
    run_compiled(compiled, nprocs, defines=defines, tracer=capture)
    return compiled, capture.streams


def _reference_blob(cst, streams, nprocs, **knobs):
    """Reference container bytes, unbudgeted."""
    ref = compress_streams(cst, streams, CypressConfig(**knobs))
    ctts = [ref.ctt(r) for r in sorted(streams)]
    return serialize.dumps(merge_all(ctts, nranks=nprocs))


def _interleaved_budget_compress(
    cst, streams, nprocs, budget=1, chunk=24, **knobs
):
    """Server-style ingest: round-robin small batches across ranks under
    a tiny budget, sealing each rank at end of stream.  Interleaving is
    what forces spill/evict/reload — several ranks are live at once and
    only the active one is unevictable."""
    comp = IntraProcessCompressor(
        cst, config=CypressConfig(memory_budget_bytes=budget, **knobs)
    )
    comp.enable_incremental_fold(nranks=nprocs, domain=range(nprocs))
    cursors = {r: 0 for r in streams}
    live = sorted(streams)
    while live:
        for r in list(live):
            s = streams[r]
            if cursors[r] >= len(s):
                comp.seal_rank(r)
                live.remove(r)
                continue
            comp.ingest_stream(r, s[cursors[r]:cursors[r] + chunk])
            cursors[r] += chunk
    return comp


class TestBudgetPressure:
    """Eviction under a 1-byte budget on all four bench shapes."""

    @pytest.mark.parametrize("name", SHAPES)
    def test_pressure_byte_identical_with_real_spills(self, name):
        w = WORKLOADS[name]
        nprocs = 4 if 4 in w.valid_procs else min(w.valid_procs)
        compiled, streams = _capture(
            w.source, nprocs, w.defines(nprocs, 0.3)
        )
        blob = _reference_blob(compiled.cst, streams, nprocs)
        comp = _interleaved_budget_compress(
            compiled.cst, streams, nprocs
        )
        try:
            budget_blob = serialize.dumps(comp.merged(nranks=nprocs))
            bc = comp.budget_counters
            # The 1-byte budget must actually drive eviction...
            assert bc.spills > 0 and bc.reloads > 0
            assert bc.folds == nprocs
            assert bc.spill_bytes > 0 and bc.reload_bytes > 0
            assert bc.peak_live_bytes > 0
            # ...and every rank's state must be released by the fold.
            assert not comp.table.live
            assert bc.live_bytes == 0
        finally:
            comp.close_spill()
        assert budget_blob == blob

    def test_batch_compress_streams_path(self):
        """The one-shot ``compress_streams`` budget path: every rank
        folds right after its stream, and the merged bytes match the
        unbudgeted pipeline's."""
        w = WORKLOADS["fig11"]
        compiled, streams = _capture(w.source, 4, w.defines(4, 0.3))
        blob = _reference_blob(compiled.cst, streams, 4)
        comp = compress_streams(
            compiled.cst, streams,
            config=CypressConfig(memory_budget_bytes=1), nranks=4,
        )
        try:
            budget_blob = serialize.dumps(comp.merged(nranks=4))
            assert comp.budget_counters.folds == 4
            assert not comp.table.live
        finally:
            comp.close_spill()
        assert budget_blob == blob

    def test_metrics_exact_after_fold_and_spill(self):
        """intra.* counters must not drift when states are archived:
        folded/spilled ranks keep contributing their event/record
        totals."""
        w = WORKLOADS["cg"]
        compiled, streams = _capture(w.source, 4, w.defines(4, 0.3))
        ref = compress_streams(compiled.cst, streams)
        comp = _interleaved_budget_compress(compiled.cst, streams, 4)
        try:
            comp.merged(nranks=4)
            got = comp.metrics_counters()
            want = ref.metrics_counters()
            for key in ("intra.events", "intra.records", "intra.ranks"):
                assert got[key] == want[key], key
        finally:
            comp.close_spill()
        # A spilled rank that is quarantined takes its totals with it —
        # without its snapshot being read back.
        comp = IntraProcessCompressor(
            compiled.cst, config=CypressConfig(memory_budget_bytes=1)
        )
        try:
            for rank in (1, 0):  # rank 0's batch evicts rank 1
                comp.ingest_stream(rank, streams[rank])
            assert comp.table.status(1) == SPILLED
            both = comp.metrics_counters()
            comp.discard_rank(1)
            assert comp.budget_counters.reloads == 0
            got = comp.metrics_counters()
            alone = compress_streams(compiled.cst, {0: streams[0]})
            want = alone.metrics_counters()
            for key in ("intra.events", "intra.records", "intra.ranks"):
                assert got[key] == want[key] < both[key], key
        finally:
            comp.close_spill()


class TestSpillReloadRoundTrip:
    """Spill → evict → reload cycles are byte-exact."""

    @pytest.mark.parametrize("name", SHAPES)
    def test_mid_stream_spill_reload(self, name):
        w = WORKLOADS[name]
        nprocs = 4 if 4 in w.valid_procs else min(w.valid_procs)
        compiled, streams = _capture(
            w.source, nprocs, w.defines(nprocs, 0.3)
        )
        ref = compress_streams(compiled.cst, streams)
        comp = IntraProcessCompressor(
            compiled.cst, config=CypressConfig(memory_budget_bytes=1)
        )
        try:
            # Under the 1-byte budget each batch evicts every other rank
            # (one holding an unresolved wildcard stays), so a rank's
            # second half finds it on disk: the reload is implicit.
            for half in (0, 1):
                for rank in sorted(streams):
                    s = streams[rank]
                    cut = len(s) // 2
                    comp.ingest_stream(rank, s[cut:] if half else s[:cut])
            spilled = comp.budget_counters.spills
            for rank in sorted(streams):
                # The container codec wants a merged tree; a single-rank
                # merge is a faithful byte-level fingerprint of the CTT.
                got = serialize.dumps(
                    merge_all([comp.ctt(rank)], nranks=nprocs))
                want = serialize.dumps(
                    merge_all([ref.ctt(rank)], nranks=nprocs))
                assert got == want, \
                    f"rank {rank} diverged after spill/reload"
        finally:
            comp.close_spill()
        assert spilled > 0  # the cycle was actually exercised

    def test_state_access_reloads_spilled_rank(self):
        w = WORKLOADS["fig11"]
        compiled, streams = _capture(w.source, 4, w.defines(4, 0.3))
        comp = IntraProcessCompressor(
            compiled.cst, config=CypressConfig(memory_budget_bytes=1)
        )
        try:
            for rank in (0, 1):  # rank 1's batch evicts rank 0
                comp.ingest_stream(rank, streams[rank])
            assert comp.table.status(0) == SPILLED
            assert comp.budget_counters.spills == 1
            comp.state(0)  # touch → reload
            assert comp.table.status(0) == LIVE
            assert comp.budget_counters.reloads == 1
        finally:
            comp.close_spill()


    def test_snapshots_are_leaf_blocks(self):
        """A snapshot holds its records as the container does — leaf
        blocks over one stats table.  As rows of every field the sixteen
        snapshots of sp P=16 scale 3 took 531 888 bytes."""
        w = WORKLOADS["sp"]
        compiled, streams = _capture(w.source, 16, w.defines(16, 3))
        comp = compress_streams(compiled.cst, streams)
        total = sum(
            len(encode_rank_state(comp.state(rank))) for rank in streams
        )
        assert total <= 60_000


class TestBudgetProperty:
    """Random programs: budgeted interleaved ingest == the unbudgeted
    pipeline."""

    @settings(**SETTINGS)
    @given(program(allow_functions=True), st.sampled_from([2, 4]),
           st.sampled_from([8, 24, 64]),
           st.sampled_from(["meanstd", "hist"]), st.sampled_from([None, 1]))
    def test_random_programs_byte_identical(
        self, source, nprocs, chunk, timing_mode, window
    ):
        # hist bins go through the snapshot's stats table, a bounded
        # window's equal-key records through its leaf blocks
        knobs = dict(timing_mode=timing_mode, window=window)
        compiled, streams = _capture(source, nprocs)
        assume(streams)  # a program with no MPI events has no trace
        blob = _reference_blob(compiled.cst, streams, nprocs, **knobs)
        comp = _interleaved_budget_compress(
            compiled.cst, streams, nprocs, chunk=chunk, **knobs
        )
        try:
            budget_blob = serialize.dumps(comp.merged(nranks=nprocs))
        finally:
            comp.close_spill()
        assert budget_blob == blob


class TestLiveTracingUnderBudget:
    """Live tracing has no budget cadence of its own: callbacks append,
    and every drain is an ``ingest_stream`` batch with the usual
    prologue.  Buffered items count as live bytes until they drain."""

    @pytest.mark.parametrize("name", ["cg", "fig11"])
    def test_live_run_spills_and_matches_unbudgeted(
        self, name, tmp_path, monkeypatch
    ):
        from repro.core import intra
        from repro.core.api import run_cypress

        # Several drains per rank at test size, so ranks are evicted
        # and reloaded mid-run, not only at MPI_Finalize.
        monkeypatch.setattr(intra, "DRAIN_ITEMS", 64)
        w = WORKLOADS[name]
        nprocs = 4
        defines = w.defines(nprocs, 1.0)
        spill_dir = tmp_path / "spill"
        plain = run_cypress(w.source, nprocs, defines=defines)
        run = run_cypress(
            w.source, nprocs, defines=defines,
            config=CypressConfig(
                memory_budget_bytes=1, spill_dir=str(spill_dir)
            ),
        )
        comp = run.compressor
        try:
            assert comp._buffered == 0 and not any(comp._buffers.values())
            bc = comp.budget_counters
            assert bc.spills > 0 and bc.peak_live_bytes > 0
            drains = comp.metrics_counters()["intra.live_drains"]
            assert drains > 2 * nprocs
            # One eviction a drain — or, for the drain a rank finalizes
            # on, its fold into the partial merge.
            assert bc.folds == nprocs
            assert bc.spills + bc.folds >= drains - nprocs
            assert run.trace_bytes() == plain.trace_bytes()
            assert serialize.dumps(run.merge()) == serialize.dumps(
                plain.merge()
            )
            assert bc.reloads > 0
        finally:
            comp.close_spill()
        assert not spill_dir.exists() or not any(spill_dir.iterdir())

    def test_buffered_items_count_as_live_bytes(self):
        from repro.core import intra

        w = WORKLOADS["fig11"]
        compiled, _ = _capture(w.source, 2, w.defines(2, 0.3))
        comp = IntraProcessCompressor(compiled.cst)
        before = comp.total_live_bytes()
        for _ in range(10):
            comp.on_loop_iter(0, 5)
        # The estimator counts the buffered items; it does not drain them.
        assert comp.total_live_bytes() == before + 10 * intra._ITEM_LIVE_BYTES
        assert comp._buffered == 10


class TestFoldSemantics:
    def test_folded_rank_state_is_gone(self):
        w = WORKLOADS["fig11"]
        compiled, streams = _capture(w.source, 4, w.defines(4, 0.3))
        comp = _interleaved_budget_compress(compiled.cst, streams, 4)
        try:
            with pytest.raises(StreamMismatchError, match="folded"):
                comp.state(0)
            # A late callback for a folded rank only buffers; the drain
            # a read triggers finds the state gone and says so.
            comp.on_loop_iter(0, 1)
            with pytest.raises(StreamMismatchError, match="folded"):
                comp.state(0)
            comp.discard_rank(0)
            comp.merged(nranks=4)
        finally:
            comp.close_spill()

    def test_merged_cannot_exclude_folded_rank(self):
        w = WORKLOADS["fig11"]
        compiled, streams = _capture(w.source, 4, w.defines(4, 0.3))
        comp = _interleaved_budget_compress(compiled.cst, streams, 4)
        try:
            with pytest.raises(MergeError, match="cannot be undone"):
                comp.merged(nranks=4, ranks=[1, 2, 3])  # 0 already folded
        finally:
            comp.close_spill()


class TestSpillStore:
    def test_torn_container_fails_loudly(self, tmp_path):
        store = SpillStore(str(tmp_path))
        store.spill(0, b"payload-bytes-here")
        path = store.path(0)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) - 3])  # tear the tail
        with pytest.raises(SpillFormatError):
            store.load(0)
        store.close()

    def test_roundtrip_and_discard(self, tmp_path):
        store = SpillStore(str(tmp_path))
        store.spill(7, b"\x01\x02\x03")
        assert 7 in store and store.load(7) == b"\x01\x02\x03"
        store.discard(7)
        assert 7 not in store
        store.close()

    def test_pending_wildcards_are_unevictable(self):
        st_obj = types.SimpleNamespace(rank=3, pending={11: object()})
        with pytest.raises(ValueError, match="unevictable"):
            encode_rank_state(st_obj)

    def test_counters_metric_names(self):
        bc = BudgetCounters(spills=2, reloads=1, folds=4, live_bytes=10,
                            peak_live_bytes=99)
        m = bc.as_metrics()
        assert m["budget.spills"] == 2
        assert m["budget.peak_live_bytes"] == 99
        assert set(m) == {
            "budget.spills", "budget.spill_bytes", "budget.reloads",
            "budget.reload_bytes", "budget.folds", "budget.live_bytes",
            "budget.peak_live_bytes",
        }


class TestLiveBytesEstimator:
    """The serialized-size estimate is not the live-memory trigger: the
    live estimate is strictly larger (boxed objects, caches, index
    dicts)."""

    def test_live_exceeds_serialized(self):
        w = WORKLOADS["cg"]
        compiled, streams = _capture(w.source, 4, w.defines(4, 0.3))
        comp = compress_streams(compiled.cst, streams)
        for rank in range(4):
            ctt = comp.ctt(rank)
            assert ctt.live_bytes() > ctt.serialized_bytes()
            assert comp.live_bytes(rank) > comp.serialized_bytes(rank)

    def test_serialized_estimate_tracks_container(self):
        """The serialized estimate should be within an order of
        magnitude of the actual container size (it is an estimate, not
        an invoice)."""
        w = WORKLOADS["fig11"]
        compiled, streams = _capture(w.source, 4, w.defines(4, 0.3))
        comp = compress_streams(compiled.cst, streams)
        actual = len(serialize.dumps(
            merge_all([comp.ctt(0)], nranks=4)))
        est = comp.serialized_bytes(0)
        assert actual // 10 <= est <= actual * 10

    @pytest.mark.parametrize(
        "name,nprocs,scale", [("mg", 64, 0.1), ("sp", 16, 1), ("cg", 8, 1)]
    )
    def test_live_estimate_tracks_tracemalloc(self, name, nprocs, scale):
        """A budget that claims to bound memory must check its estimate
        against ground truth: ``total_live_bytes()`` stays within a
        factor 1.5 of what ``compress_streams`` really allocated and
        kept, on a wide, an irregular and a loop-heavy shape (measured
        0.81 / 1.01 / 0.73 with the per-leaf params index counted).
        The index is part of both sides: sp, where it is a fifth of the
        footprint, must stay inside 0.75-1.03."""
        w = WORKLOADS[name]
        compiled, streams = _capture(
            w.source, nprocs, w.defines(nprocs, scale)
        )
        compress_streams(compiled.cst, streams)  # warm caches and imports
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            comp = compress_streams(compiled.cst, streams)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        ratio = comp.total_live_bytes() / grown
        assert 0.5 <= ratio <= 1.5
        if name == "sp":
            assert 0.75 <= ratio <= 1.03
        # The estimate prices every index entry at no less than the
        # parameter tuple it alone keeps alive (56 + 11 * 8 bytes).
        leaves = [
            v for rank in range(nprocs) for v in comp.ctt(rank).vertices()
            if v.params_index
        ]
        entries = sum(len(v.params_index) for v in leaves)
        assert entries == comp.metrics_counters()["intra.records"]
        for v in leaves:
            v.params_index.clear()
        assert ratio * grown - comp.total_live_bytes() >= 144 * entries
