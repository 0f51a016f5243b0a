"""The rank table's transitions, in any order (docs/INTERNALS.md §14).

A rank is fed, evicted, reloaded, read, sealed, folded or discarded in
whatever order a job's traffic produces.  The state machine below drives
one budgeted compressor (1-byte budget, so every batch evicts every
other evictable rank) through those operations in arbitrary order and
checks after every step that each rank is in exactly one place, that the
derived metrics stay exact while trees leave and re-enter memory, and
that the spill directory holds a container for the spilled ranks and
nothing else.  At the end the merged container must equal the unbudgeted
single pass over the same survivors, byte for byte."""

import os
import shutil
import sys
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import intra, serialize
from repro.core.budget import FOLDED, LIVE, SPILLED
from repro.core.errors import MergeError
from repro.core.inter import merge_all
from repro.core.intra import (
    CypressConfig,
    IntraProcessCompressor,
    compress_streams,
)
from repro.driver import run_compiled
from repro.mpisim.pmpi import OP_EVENT, StreamCaptureSink
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS

sys.path.insert(0, "tests")
from helpers import replay_into  # noqa: E402

NPROCS = 4
_SHAPES: dict[str, tuple] = {}


def _shape(name: str):
    """``(cst, streams, unbudgeted reference compressor)``, traced once."""
    if name not in _SHAPES:
        w = WORKLOADS[name]
        compiled = compile_minimpi(w.source)
        capture = StreamCaptureSink()
        run_compiled(
            compiled, NPROCS, defines=w.defines(NPROCS, 0.3), tracer=capture
        )
        streams = capture.streams
        _SHAPES[name] = (
            compiled.cst, streams, compress_streams(compiled.cst, streams)
        )
    return _SHAPES[name]


class RankTableMachine(RuleBasedStateMachine):
    @initialize(name=st.sampled_from(["cg", "farm"]))
    def start(self, name):
        self.cst, self.streams, self.reference = _shape(name)
        self.spill_dir = tempfile.mkdtemp(prefix="cypress-ranktable-")
        self.comp = IntraProcessCompressor(
            self.cst,
            CypressConfig(memory_budget_bytes=1, spill_dir=self.spill_dir),
        )
        self.comp.enable_incremental_fold(nranks=NPROCS, domain=range(NPROCS))
        self.cursor = dict.fromkeys(range(NPROCS), 0)
        self.discarded: set[int] = set()
        # Live callbacks drain in small batches, mid-loop and mid-request.
        self.drain_items, intra.DRAIN_ITEMS = intra.DRAIN_ITEMS, 16

    def teardown(self):
        if not hasattr(self, "comp"):
            return
        intra.DRAIN_ITEMS = self.drain_items
        comp = self.comp
        try:
            survivors = [r for r in range(NPROCS) if r not in self.discarded]
            for rank in survivors:
                if self._spent(rank):
                    continue
                comp.ingest_stream(rank, self.streams[rank][self.cursor[rank]:])
                self.cursor[rank] = len(self.streams[rank])
            for rank in survivors:
                comp.seal_rank(rank)
            self.check_table()
            if survivors:
                blob = serialize.dumps(
                    comp.merged(nranks=NPROCS, ranks=survivors)
                )
                want = serialize.dumps(merge_all(
                    [self.reference.ctt(r) for r in survivors], nranks=NPROCS
                ))
                assert blob == want
                assert comp.budget_counters.folds == len(survivors)
                assert not comp.table.live
            else:
                try:
                    comp.merged(nranks=NPROCS, ranks=[])
                except MergeError:
                    pass
                else:
                    raise AssertionError("merged() of no ranks must refuse")
            comp.close_spill()
            assert os.listdir(self.spill_dir) == []
        finally:
            comp.close_spill()
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    # -- the model ---------------------------------------------------------

    def _spent(self, rank):
        return self.cursor[rank] >= len(self.streams[rank])

    def _status(self, rank):
        return self.comp.table.status(rank)

    def _feedable(self):
        return [
            r for r in range(NPROCS)
            if r not in self.discarded and not self._spent(r)
        ]

    def _sealable(self):
        return [
            r for r in range(NPROCS)
            if r not in self.discarded and self._spent(r)
        ]

    def _readable(self):
        return [
            r for r in range(NPROCS)
            if r not in self.discarded and self._status(r) != FOLDED
        ]

    def _take(self, rank, size):
        at = self.cursor[rank]
        self.cursor[rank] = min(at + size, len(self.streams[rank]))
        return self.streams[rank][at:at + size]

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: self._feedable())
    @rule(data=st.data(), size=st.integers(1, 200))
    def feed(self, data, size):
        rank = data.draw(st.sampled_from(self._feedable()))
        self.comp.ingest_stream(rank, self._take(rank, size))
        assert self._status(rank) == LIVE

    @precondition(lambda self: self._feedable())
    @rule(data=st.data(), size=st.integers(1, 200))
    def feed_live(self, data, size):
        """The same items through the rank's emitter; a chunk that
        ends the stream carries MPI_Finalize, which seals the rank."""
        rank = data.draw(st.sampled_from(self._feedable()))
        replay_into({rank: self._take(rank, size)}, self.comp)

    @precondition(lambda self: self._sealable())
    @rule(data=st.data())
    def seal(self, data):
        rank = data.draw(st.sampled_from(self._sealable()))
        self.comp.seal_rank(rank)
        self.comp.seal_rank(rank)  # idempotent

    @precondition(lambda self: self._readable())
    @rule(data=st.data())
    def discard(self, data):
        rank = data.draw(st.sampled_from(self._readable()))
        self.comp.discard_rank(rank)
        self.discarded.add(rank)
        assert self._status(rank) is None

    @precondition(lambda self: self._readable())
    @rule(data=st.data())
    def read(self, data):
        rank = data.draw(st.sampled_from(self._readable()))
        assert self.comp.ctt(rank).rank == rank  # reloads if spilled
        assert self._status(rank) == LIVE
        assert self.comp.live_bytes(rank) > 0

    @rule()
    def total(self):
        before = {r: self._status(r) for r in range(NPROCS)}
        assert self.comp.total_live_bytes() >= 0
        assert before == {r: self._status(r) for r in range(NPROCS)}

    # -- invariants --------------------------------------------------------

    @invariant()
    def check_table(self):
        if not hasattr(self, "comp"):
            return
        comp, table = self.comp, self.comp.table
        fed = sum(
            1 for rank in range(NPROCS) if rank not in self.discarded
            for item in self.streams[rank][:self.cursor[rank]]
            if item[0] == OP_EVENT
        )
        assert comp.metrics_counters()["intra.events"] == fed
        on_disk = set()
        for rank in range(NPROCS):
            status = table.status(rank)
            assert status in (None, LIVE, SPILLED, FOLDED)
            assert (rank in table.live) == (status == LIVE)
            if rank in self.discarded:
                assert status is None
            if status == SPILLED:
                on_disk.add(f"rank{rank}.cysp")
        assert set(os.listdir(self.spill_dir)) == on_disk


RankTableMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
TestRankTable = RankTableMachine.TestCase
