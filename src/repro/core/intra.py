"""Intra-process trace compression (paper §IV-A).

This is CYPRESS's on-the-fly compressor: a :class:`~repro.mpisim.pmpi.TraceSink`
that maintains, per rank, a CTT mirroring the static CST plus a cursor —
"the pointer *p* always points to the CTT vertex that is currently being
executed".  Structural markers move the cursor; each MPI event is compared
only against the last record(s) at its own leaf vertex (O(1) per event,
the paper's headline intra-process advantage).

Cursor mechanics
----------------

The cursor is a stack of frames (loop activations, branch-path entries).
Child lookup is *ordered with wrap-around*: every vertex keeps a search
position that advances left-to-right as its children execute and resets at
each loop iteration — this disambiguates multiple inlined copies of the
same function under one parent (same ``ast_id`` twice among siblings).

Structures that were pruned from this inlined copy (they contain no MPI
calls here, but the same source-level structure survived in another copy,
so markers are still emitted) push *null frames*: the markers are consumed
and ignored, and by the pruning invariant no MPI event can occur inside.

Recursion (pseudo loops, paper Fig. 8): re-entering an active pseudo-loop
frame starts a new iteration — frames pushed above it since the last entry
are saved aside and restored when the recursive call returns, linearising
the recursion tree into the approximate loop the paper describes.

Wildcard receives (paper §IV-A "Non-Deterministic Events"): a nonblocking
``MPI_Irecv(ANY_SOURCE)`` is cached as a *pending* record; compression is
delayed until the request completes and the actual source is known.

The hot path
------------

The per-event budget is O(1), and the implementation spends it carefully
(docs/INTERNALS.md §5):

* marker moves use the shape's monomorphic dispatch tables
  (``loop_child_by_ast_id``, ``group_by_ast_id``), built once per
  program and keyed to child positions — no closure allocation, no
  generic sibling scan, no per-rank copy;
* :meth:`IntraProcessCompressor.ingest_stream` is the only live ingest
  (a rank's emitter appends to its bounded buffer, which drains through
  it, and seals the rank at its ``OP_FINALIZE`` item), and its loop commits an event in line whatever the
  MPI call: the leaf is the child at the parent's search position (the
  op table is consulted only when it is not), a nonblocking op's request
  is registered and a completion's requests are resolved and evicted
  there, and one tuple of the key-relevant parameters is probed against
  the leaf's last event, then against the leaf's ``params -> record``
  index — its only record index, always complete, so a miss is a first
  occurrence.  A hit lands directly in the record; only a parameter set
  with no record yet builds the 12-tuple key (both ``encode_peer``
  calls).  A wildcard ``Irecv`` and the bounded window are the two
  events that leave the loop.

There is no second implementation in the product: the tests hold every
path to a naive §IV-A compressor of their own (``tests/spec_compress.py``:
generic child scan, a fresh key per event), byte for byte.

Per-rank states are fully independent, so captured marker/event streams
(:class:`~repro.mpisim.pmpi.StreamCaptureSink`) can be compressed after
the run by :func:`compress_streams`, with output byte-identical to
compressing in line.

What happens to a rank between batches — resident, spilled, sealed,
folded — and the way from the ranks to the merged tree belong to
:class:`~repro.core.budget.RankTable`; this module is buffers, cursor,
record commit and :meth:`IntraProcessCompressor._walk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import length_hint

from repro import obs

from repro.mpisim.events import CommEvent
from repro.mpisim.pmpi import (
    OP_BRANCH_ENTER,
    OP_BRANCH_EXIT,
    OP_EVENT,
    OP_FINALIZE,
    OP_LOOP_ITER,
    OP_LOOP_POP,
    OP_LOOP_PUSH,
    OP_RECURSE_ENTER,
    OP_RECURSE_EXIT,
    OP_REQ_COMPLETE,
    TraceSink,
)
from repro.static.cst import CSTNode

from . import packed
from .budget import RankState, RankTable, state_live_bytes
from .ctt import CTT, CTTShape, CTTVertex
from .errors import StreamMismatchError
from .quarantine import QuarantinedRank, QuarantineReport
from .records import CompressedRecord, event_key, key_params
from .sequences import append_term
from .timing import MEANSTD, check_mode


@dataclass(frozen=True)
class CypressConfig:
    """Tunables of the dynamic module (ablation switches).

    ``window`` controls leaf-record matching.  ``None`` (default) merges a
    new event into *any* existing record with the same key — exact because
    records carry stride-compressed occurrence-index sequences, and the
    right choice for parameter patterns that cycle (MG's per-level message
    sizes).  An integer reproduces the paper's bounded scan: the paper's
    own implementation compares only against the last record
    (``window=1``, §IV-A) and mentions larger sliding windows as the
    cost/effectiveness trade-off — the ablation bench sweeps this.

    ``memory_budget_bytes`` arms the bounded-memory streaming mode
    (docs/INTERNALS.md §14): the compressor keeps its total live
    footprint (:meth:`IntraProcessCompressor.total_live_bytes`) under
    the budget by folding completed ranks into a partial merged tree and
    spilling cold rank states to crash-safe containers under
    ``spill_dir`` (a private temp dir when None).  Budgeted output is
    byte-identical to the unbudgeted pipeline.
    """

    window: int | None = None  # None = unbounded keyed merge
    timing_mode: str = MEANSTD  # 'meanstd' or 'hist'
    relative_ranks: bool = True  # relative peer encoding (paper §IV-B)
    memory_budget_bytes: int | None = None  # None = unbounded (no budget)
    spill_dir: str | None = None  # spill-container home (budget mode)

    def __post_init__(self) -> None:
        # Checked here, once: the record-commit path fills a record's
        # stats slots without re-validating the mode per record.
        check_mode(self.timing_mode)


# Live-tracing buffers (docs/INTERNALS.md §5).  A rank's buffer drains
# when it holds DRAIN_ITEMS items, and every buffer drains when the
# process holds TOTAL_ITEMS between them — all P simulated ranks share
# this process, so residency is bounded by a constant, not by P.
# Chosen by measurement on the five e2e workloads (CHANGES.md, PR 14).
DRAIN_ITEMS = 4096
TOTAL_ITEMS = 32768

# Cursor frames are plain three-slot lists ``[kind, vertex, iters]`` —
# one is allocated per loop/branch entry on the hot path, and a list
# literal costs a fraction of a dataclass ``__init__`` call.  ``vertex``
# is None for null frames (structure pruned from this inlined copy).
_LOOP = 0
_BRANCH = 1
_F_KIND, _F_VERTEX, _F_ITERS = range(3)


class IntraProcessCompressor(TraceSink):
    """CYPRESS dynamic module, intra-process phase.

    As a live sink it is a bounded :class:`~repro.mpisim.pmpi.TraceSink`:
    a rank's emitter appends to the rank's buffer and seals the rank at
    its finalize item, :meth:`ingest_stream` compresses a buffer at a
    time, and every method that reads a rank's state drains that rank
    first, so readers never see a half-ingested rank.
    """

    wants_markers = True

    def __init__(self, cst: CSTNode, config: CypressConfig | None = None) -> None:
        self.cst = cst
        self.config = config or CypressConfig()
        # Where every rank's state is (live, spilled, folded), built on
        # the static half of every rank's CTT, extracted once.
        self.table = RankTable(CTTShape(cst), self.config)
        # Live tracing: per-rank buffers of not-yet-ingested items, how
        # many they hold between them, and how many items per rank
        # ingest_stream has consumed (locates a deferred mismatch).
        self._buffers: dict[int, list] = {}
        self._buffered = 0
        self._items_done: dict[int, int] = {}
        # Ranks excluded by lenient stream compression (populated only
        # by compress_streams; empty for inline tracing).
        self.quarantine = QuarantineReport()
        # Hoisted config fields (the config is frozen) — one attribute
        # load instead of two on every event.
        self._window = self.config.window
        self._window_unbounded = self.config.window is None
        self._relative = self.config.relative_ranks
        self._timing_mode = self.config.timing_mode
        # Observability counters (docs/INTERNALS.md §6).  Always
        # maintained: each one is incremented only on a path that already
        # misses a cache (or defers a wildcard), so the hot path carries
        # no metrics cost, and totals to rate them against are derived
        # from CTT state (leaf_visits) in metrics_counters().
        self.m_mono_miss = 0  # leaf was not the next child (table + scan)
        self.m_key_build = 0  # record keys built (no record for the params)
        self.m_stream_fallback = 0  # events committed outside the walk
        self.m_wildcard_deferred = 0  # wildcard receives queued pending
        self.m_wildcard_max_depth = 0  # peak pending-queue depth
        self.m_live_drains = 0  # live buffers drained through ingest_stream
        self.m_live_buffer_peak = 0  # peak items resident across buffers
        #: The ``budget.*`` counters; None without a memory budget.
        self.budget_counters = (
            self.table.counters if self.table.budget is not None else None
        )

    # ------------------------------------------------------------------

    def state(self, rank: int) -> RankState:
        self._drain(rank)
        return self.table.state(rank)

    def ranks(self) -> list[int]:
        self.flush()
        return self.table.ranks()

    def ctt(self, rank: int) -> CTT:
        return self.state(rank).ctt

    def live_bytes(self, rank: int) -> int:
        """Estimated live in-RAM footprint of one rank's compression
        state (:func:`~repro.core.budget.state_live_bytes`).  Reloads
        the rank if it was spilled."""
        return state_live_bytes(self.state(rank))

    def total_live_bytes(self) -> int:
        """Live footprint of every in-memory rank plus the items live
        tracing has buffered but not ingested.  The one reader that does
        not drain."""
        return self.table.live_bytes(self._buffered)

    # ------------------------------------------------------------------
    # Observability (docs/INTERNALS.md §6).

    def metrics_counters(self) -> dict[str, int]:
        """Snapshot of the intra-process counters.  Totals are derived
        from CTT state rather than sampled on the hot path: every
        dispatched event increments exactly one leaf's ``leaf_visits``,
        so cache *hits* are ``events - misses`` at zero per-event cost."""
        ranks = self.ranks()  # flushes
        events, records = self.table.totals()
        return {
            "intra.events": events,
            "intra.records": records,
            "intra.ranks": len(ranks),
            "intra.mono_cache_miss": self.m_mono_miss,
            "intra.key_builds": self.m_key_build,
            "intra.stream_fallback": self.m_stream_fallback,
            "intra.wildcard_deferred": self.m_wildcard_deferred,
            "intra.wildcard_max_depth": self.m_wildcard_max_depth,
            "intra.live_drains": self.m_live_drains,
            "intra.live_buffer_peak_items": self.m_live_buffer_peak,
        }

    def publish_metrics(self, registry) -> None:
        """Push counters plus derived hit-rate gauges into ``registry``."""
        counters = self.metrics_counters()
        events = counters["intra.events"]
        for name, value in counters.items():
            if name in (
                "intra.wildcard_max_depth", "intra.live_buffer_peak_items"
            ):
                registry.gauge_max(name, value)
            else:
                registry.counter_add(name, value)
        if events:
            registry.gauge_set(
                "intra.mono_cache_hit_rate",
                1.0 - counters["intra.mono_cache_miss"] / events,
            )
            registry.gauge_set(
                "intra.key_cache_hit_rate",
                1.0 - counters["intra.key_builds"] / events,
            )
        bc = self.budget_counters
        if bc is not None:
            for name, value in bc.as_metrics().items():
                if name in ("budget.live_bytes", "budget.peak_live_bytes"):
                    registry.gauge_max(name, value)
                else:
                    registry.counter_add(name, value)

    # ------------------------------------------------------------------
    # A rank's life beyond the walk (docs/INTERNALS.md §14): each of
    # these drains what it must, then asks the table.

    def enable_incremental_fold(self, nranks: int | None = None, domain=None) -> None:
        """Arm the streaming merge, by whoever knows the job's ranks.
        ``domain`` is the full rank set expected to stream: under a
        memory budget a sealed rank folds into the partial merged tree
        as soon as every lower rank of the domain is folded or
        discarded.  ``nranks`` is what :meth:`merged` hands the merge's
        damaged-delta repair when it is not told again."""
        self.table.arm(nranks, domain)

    def seal_rank(self, rank: int) -> None:
        """Mark one rank's stream complete (idempotent): its CTT is
        final, and under a memory budget eligible for folding."""
        self._drain(rank)
        self.table.seal(rank, self._buffered)

    def merged(self, nranks: int | None = None, ranks=None):
        """The finish line of every driver: the job-wide merged tree
        over ``ranks`` (the server passes its healthy set; default is
        every rank seen and not quarantined) — one ``merge_all`` pass
        without a budget, the rest of the ascending fold with one, the
        same bytes either way."""
        self.flush()
        if ranks is None:
            bad = self.quarantine.rank_set()
            ranks = [r for r in self.table.ranks() if r not in bad]
        return self.table.merged(sorted(ranks), nranks)

    def discard_rank(self, rank: int) -> None:
        """Drop every trace of a rank (quarantine path): buffered items,
        state, spill container, its place in the fold domain."""
        buf = self._buffers.get(rank, [])
        self._buffered -= len(buf)
        buf.clear()  # in place: the rank's emitter may hold it
        self._items_done.pop(rank, None)
        self.table.discard(rank)

    def close_spill(self) -> None:
        """Delete every spill container (end of job)."""
        self.table.close()

    # ------------------------------------------------------------------
    # Live tracing (docs/INTERNALS.md §5).  A rank's emitter only
    # appends the item to the rank's buffer, seals the rank at its
    # finalize item and applies the two bounds; the buffer is drained
    # through :meth:`ingest_stream`, the one loop that interprets items.
    # A CST/stream mismatch therefore raises no later than the next
    # drain, ``flush()`` or read of that rank — and an unresolved
    # wildcard receive at the rank's finalize, inside the run.

    def stream(self, rank: int):
        buf = self._buffers.setdefault(rank, [])
        append = buf.append

        def emit(item):
            append(item)
            self._buffered = resident = self._buffered + 1
            if item[0] == OP_FINALIZE:
                self.seal_rank(rank)
            elif len(buf) >= DRAIN_ITEMS:
                self._drain(rank)
            elif resident >= TOTAL_ITEMS:
                self.flush()
        return emit

    def _drain(self, rank: int) -> None:
        buf = self._buffers.get(rank)
        if not buf:
            return
        if self._buffered > self.m_live_buffer_peak:
            self.m_live_buffer_peak = self._buffered
        # Empty the list in place (the rank's emitter holds it) before
        # ingesting: ingest_stream reads this rank's state, and reading a
        # rank drains it.
        items = buf[:]
        buf.clear()
        self._buffered -= len(items)
        self.m_live_drains += 1
        self.ingest_stream(rank, items)

    def flush(self) -> None:
        """Drain every rank's buffer (end of run, and before any reader
        that looks across ranks)."""
        if self._buffered:
            for rank, buf in list(self._buffers.items()):
                if buf:
                    self._drain(rank)

    # ------------------------------------------------------------------
    # Structural markers: the cold handlers ``_walk`` calls, each taking
    # the resolved rank state.

    def _loop_push(self, st: RankState, ast_id: int) -> list:
        stack = st.stack
        cur = stack[-1][_F_VERTEX] if stack else st.ctt.root
        frame = [_LOOP, None, 0]
        if cur is not None:
            found = cur.find_loop_child(ast_id, cur.search_pos)
            if found is not None:
                idx, child = found
                cur.search_pos = idx + 1
                child.search_pos = 0
                frame[_F_VERTEX] = child
        stack.append(frame)
        return frame

    def _loop_iter(self, st: RankState, ast_id: int) -> None:
        stack = st.stack
        if not stack or stack[-1][_F_KIND] != _LOOP:
            raise StreamMismatchError(
                f"rank {st.rank}: loop iteration marker {ast_id} "
                "with no open loop"
            )
        frame = stack[-1]
        frame[_F_ITERS] += 1
        vertex = frame[_F_VERTEX]
        if vertex is not None:
            vertex.search_pos = 0

    def _loop_pop(self, st: RankState, ast_id: int) -> None:
        stack = st.stack
        if not stack or stack[-1][_F_KIND] != _LOOP:
            raise StreamMismatchError(
                f"rank {st.rank}: loop exit marker {ast_id} with no open loop"
            )
        frame = stack.pop()
        vertex = frame[_F_VERTEX]
        if vertex is not None:
            vertex.loop_counts.append(frame[_F_ITERS])

    def _branch_exit(self, st: RankState, ast_id: int) -> None:
        stack = st.stack
        if not stack or stack[-1][_F_KIND] != _BRANCH:
            raise StreamMismatchError(
                f"rank {st.rank}: branch exit marker {ast_id} "
                "with no open branch"
            )
        stack.pop()

    def _recurse_enter(self, st: RankState, ast_id: int) -> None:
        # Find an active pseudo-loop frame for this function.
        for i in range(len(st.stack) - 1, -1, -1):
            frame = st.stack[i]
            vertex = frame[_F_VERTEX]
            if (
                frame[_F_KIND] == _LOOP
                and vertex is not None
                and vertex.ast_id == ast_id
            ):
                # New iteration of the approximate loop: set aside the
                # frames opened since, restore them when this call returns.
                st.recursion_saved.append(st.stack[i + 1 :])
                del st.stack[i + 1 :]
                frame[_F_ITERS] += 1
                vertex.search_pos = 0
                return
        # Outermost entry: behaves like loop push + first iteration.
        frame = self._loop_push(st, ast_id)
        frame[_F_ITERS] = 1
        st.recursion_saved.append(None)

    def _recurse_exit(self, st: RankState, ast_id: int) -> None:
        if not st.recursion_saved:
            raise StreamMismatchError(
                f"rank {st.rank}: recursion exit marker {ast_id} without entry"
            )
        saved = st.recursion_saved.pop()
        if saved is None:
            self._loop_pop(st, ast_id)
        else:
            st.stack.extend(saved)

    # ------------------------------------------------------------------
    # Communication events.

    def _no_leaf(self, st: RankState, cur, op: str) -> StreamMismatchError:
        """The cold end of leaf dispatch: nothing under ``cur`` takes
        this event."""
        if cur is None:
            return StreamMismatchError(
                f"rank {st.rank}: event {op} inside a pruned structure"
            )
        return StreamMismatchError(
            f"rank {st.rank}: no CST leaf for {op} under vertex "
            f"gid={cur.gid} ({cur.kind})"
        )

    def _ingest_pending(
        self,
        st: RankState,
        leaf: CTTVertex,
        ev: CommEvent,
        visit: int,
        duration: float,
        gap: float,
    ) -> None:
        """Wildcard receive: delay compression until the source is known
        (paper §IV-A)."""
        record = CompressedRecord.first(
            None, visit, duration, gap, self._timing_mode, pending=True
        )
        st.pending[ev.req] = (leaf, record, ev, len(leaf.records))
        leaf.records.append(record)
        self.m_wildcard_deferred += 1
        depth = len(st.pending)
        if depth > self.m_wildcard_max_depth:
            self.m_wildcard_max_depth = depth

    def _add_record(
        self,
        leaf: CTTVertex,
        key,
        visit: int,
        duration: float,
        gap: float,
    ) -> None:
        """Bounded-window commit: the paper's scan of the leaf's last
        ``window`` records for one with ``key``."""
        records = leaf.records
        for back in range(1, min(self._window, len(records)) + 1):
            candidate = records[-back]
            if candidate.pending:
                continue
            if candidate.key == key:
                candidate.add_occurrence(visit, duration, gap)
                return
        records.append(CompressedRecord.first(
            key, visit, duration, gap, self._timing_mode
        ))

    def _request_complete(
        self, st: RankState, rid: int, source: int, nbytes: int, when: float
    ) -> None:
        entry = st.pending.pop(rid, None)
        if entry is None:
            return
        leaf, record, ev, pos = entry
        record.key = event_key(
            ev, st.rank, self._relative, (), peer=source, nbytes=nbytes
        )
        record.pending = False
        window = self._window
        if window is None:
            # Indexed under its resolved parameters, like any record.
            params = key_params(record.key, st.rank)
            other = leaf.params_index.get(params)
            if other is None:
                leaf.params_index[params] = record
            else:
                other.merge_from(record)
                del leaf.records[pos]
                self._shift_pending(st, leaf, pos)
            return
        # Bounded backward scan (the paper-faithful variant).
        lo = max(0, pos - window)
        for i in range(pos - 1, lo - 1, -1):
            other = leaf.records[i]
            if other.pending:
                continue
            if other.key == record.key:
                other.merge_from(record)
                del leaf.records[pos]
                self._shift_pending(st, leaf, pos)
                return

    @staticmethod
    def _shift_pending(st: RankState, leaf: CTTVertex, removed_pos: int) -> None:
        """A resolved record merged away and was deleted from
        ``leaf.records[removed_pos]`` — keep the stored indices of the
        remaining pending records at that leaf accurate.  O(#pending),
        bounded by the number of in-flight wildcard receives."""
        pending = st.pending
        if not pending:
            return
        for key_rid, entry in pending.items():
            if entry[0] is leaf and entry[3] > removed_pos:
                pending[key_rid] = (entry[0], entry[1], entry[2], entry[3] - 1)

    @staticmethod
    def _finalize(st: RankState) -> None:
        if st.pending:
            raise StreamMismatchError(
                f"rank {st.rank}: {len(st.pending)} wildcard receive(s) "
                "never completed"
            )

    # ------------------------------------------------------------------
    # Batched stream ingestion (live drains, deferred compression, server).

    def ingest_stream(self, rank: int, stream) -> None:
        """Compress a run of one rank's marker/event stream (a list of
        the opcode tuples a :class:`~repro.mpisim.pmpi.TraceSink`'s
        emitter takes), with the rank state and all handler bindings hoisted
        out of the loop.  The only interpreter of stream items: live
        tracing drains its buffers through here, and so do
        :func:`compress_streams`, the server and the ingestion benchmarks.

        A :class:`~repro.core.errors.StreamMismatchError` leaves with
        ``item_index`` set to the offending item's index in the rank's
        stream, counted over every ``ingest_stream`` call for the rank.
        """
        if self.table.budget is not None:
            # Per-batch budget bookkeeping: the rank is the hottest, and
            # colder ranks make room for its growth.
            self.table.make_room(self._buffered, rank)
        st = self.state(rank)
        done = self._items_done.get(rank, 0)
        it = iter(stream)
        try:
            self._walk(st, it)
        except StreamMismatchError as exc:
            # A list iterator knows exactly how many items it has left.
            exc.item_index = done + len(stream) - length_hint(it) - 1
            raise
        self._items_done[rank] = done + len(stream)

    def _walk(self, st: RankState, stream) -> None:
        loop_push = self._loop_push
        loop_iter = self._loop_iter
        loop_pop = self._loop_pop
        branch_exit = self._branch_exit
        recurse_enter = self._recurse_enter
        recurse_exit = self._recurse_exit
        request_complete = self._request_complete
        # The dominant opcodes are handled inline.  An event is
        # dispatched and committed here, whatever the MPI call: one leaf
        # lookup, its requests, one parameter tuple, and the record it
        # already has, or a new one.  Only a wildcard Irecv and the
        # bounded window leave the loop.  Branch
        # enter is whole here; branch exit and loop iter fall back to
        # the handler that raises *before* any state has been mutated.
        # ``stack``, ``root`` and the request table can be hoisted: they
        # are mutated only in place, never rebound.
        stack = st.stack
        root = st.ctt.root
        req_gid = st.req_gid
        pending = st.pending
        unbounded = self._window_unbounded
        rank = st.rank
        relative = self._relative
        timing_mode = self._timing_mode
        first = CompressedRecord.first
        for item in stream:
            code = item[0]
            if code == OP_EVENT:
                ev = item[1]
                op = ev.op
                cur = stack[-1][1] if stack else root
                if cur is None:
                    raise self._no_leaf(st, cur, op)
                # A program runs its calls in source order: the leaf
                # is the child at search_pos, or dispatch looks it up.
                idx = cur.search_pos
                try:
                    leaf = cur.children[idx]
                except IndexError:
                    leaf = cur  # past the last child: wraps around
                if leaf.op != op:
                    self.m_mono_miss += 1
                    positions = cur.call_children_by_op.get(op)
                    if positions is None:
                        raise self._no_leaf(st, cur, op)
                    # First candidate at or after search_pos, else
                    # wrap to the first overall.
                    for pos in positions:
                        if pos >= idx:
                            break
                    else:
                        pos = positions[0]
                    idx = pos
                    leaf = cur.children[pos]
                cur.search_pos = idx + 1
                visit = leaf.leaf_visits
                leaf.leaf_visits = visit + 1
                if leaf.op_nonblocking:
                    req_gid[ev.req] = leaf.gid
                reqs = ev.reqs
                if reqs:
                    # Resolve every id, then evict every id: the table
                    # holds only requests in flight, and a reused id
                    # never resolves to a stale creator.
                    req_gids = tuple([req_gid.get(r, -1) for r in reqs])
                    for r in reqs:
                        req_gid.pop(r, None)
                else:
                    req_gids = ()
                start = ev.time_start
                last_end = st.last_event_end
                gap = start - last_end
                if gap < 0.0:
                    gap = 0.0
                duration = ev.duration
                end = start + duration
                if end > last_end:
                    st.last_event_end = end
                wildcard = ev.wildcard
                if wildcard and op == "MPI_Irecv":
                    self.m_stream_fallback += 1
                    self._ingest_pending(st, leaf, ev, visit, duration, gap)
                    continue
                if not unbounded:
                    # The paper's bounded scan, which no cache serves.
                    self.m_stream_fallback += 1
                    self.m_key_build += 1
                    self._add_record(
                        leaf, event_key(ev, st.rank, self._relative, req_gids),
                        visit, duration, gap,
                    )
                    continue
                # One tuple of every key-relevant parameter (``op``
                # is the leaf's), probed against the leaf's last
                # event, then against every tuple the leaf has seen.
                params = (
                    ev.peer,
                    ev.nbytes,
                    ev.tag,
                    req_gids,
                    ev.peer2,
                    ev.tag2,
                    ev.nbytes2,
                    ev.comm,
                    ev.root,
                    wildcard,
                    ev.result_comm,
                )
                if params == leaf.last_params:
                    record = leaf.last_record
                else:
                    record = leaf.params_index.get(params)
                    if record is None:
                        # A first occurrence: the one place the walk
                        # builds a key.
                        self.m_key_build += 1
                        record = first(
                            event_key(ev, rank, relative, req_gids),
                            visit, duration, gap, timing_mode,
                        )
                        leaf.records.append(record)
                        leaf.params_index[params] = record
                        leaf.last_params = params
                        leaf.last_record = record
                        continue
                    leaf.last_params = params
                    leaf.last_record = record
                # CompressedRecord.add_occurrence with its common cases
                # in line: the record's one term or its last listed one
                # extends, and in the meanstd mode both stats blocks
                # take timing.add_sample's float ops.
                terms = record.terms
                if terms is None:
                    n = record.length
                    if n == 1:
                        record.stride = visit - record.start
                    elif visit != record.start + n * record.stride:
                        record.terms = terms = [
                            (record.start, n, record.stride)
                        ]
                        record.start = record.stride = 0
                        append_term(terms, visit)
                    record.length = n + 1
                else:
                    s0, c0, d0 = terms[-1]
                    if c0 == 1:
                        terms[-1] = (s0, 2, visit - s0)
                    elif visit == s0 + c0 * d0:
                        terms[-1] = (s0, c0 + 1, d0)
                    else:
                        append_term(terms, visit)
                    record.length += 1
                if record.dur_bins is None:
                    record.dur_count = n = record.dur_count + 1
                    delta = duration - record.dur_mean
                    record.dur_mean = mean = record.dur_mean + delta / n
                    record.dur_m2 += delta * (duration - mean)
                    if duration < record.dur_min:
                        record.dur_min = duration
                    if duration > record.dur_max:
                        record.dur_max = duration
                    record.gap_count = n = record.gap_count + 1
                    delta = gap - record.gap_mean
                    record.gap_mean = mean = record.gap_mean + delta / n
                    record.gap_m2 += delta * (gap - mean)
                    if gap < record.gap_min:
                        record.gap_min = gap
                    if gap > record.gap_max:
                        record.gap_max = gap
                else:
                    record.add_times(duration, gap)
            elif code == OP_BRANCH_ENTER:
                # The group at or after search_pos, else the first one
                # (wrap-around); a pruned structure or path pushes a
                # null frame.
                cur = stack[-1][1] if stack else root
                if cur is None:
                    stack.append([_BRANCH, None, 0])
                    continue
                groups = cur.group_by_ast_id.get(item[1])
                if groups is None:
                    stack.append([_BRANCH, None, 0])
                    continue
                sp = cur.search_pos
                for group in groups:
                    if group.first_index >= sp:
                        break
                else:
                    group = groups[0]
                cur.search_pos = group.last_index + 1
                counters = cur.group_visits
                visit = counters[group.number]
                counters[group.number] = visit + 1
                pos = group.paths.get(item[2])
                if pos is None:
                    stack.append([_BRANCH, None, 0])
                    continue
                path_vertex = cur.children[pos]
                seq = path_vertex.visits
                terms = seq.terms
                if terms:
                    s0, c0, d0 = terms[-1]
                    if c0 == 1:
                        terms[-1] = (s0, 2, visit - s0)
                        seq.length += 1
                    elif visit == s0 + c0 * d0:
                        terms[-1] = (s0, c0 + 1, d0)
                        seq.length += 1
                    else:
                        seq.append(visit)
                else:
                    seq.append(visit)
                path_vertex.search_pos = 0
                stack.append([_BRANCH, path_vertex, 0])
            elif code == OP_BRANCH_EXIT:
                if stack and stack[-1][0] == _BRANCH:
                    stack.pop()
                else:
                    branch_exit(st, item[1])
            elif code == OP_LOOP_ITER:
                if stack:
                    frame = stack[-1]
                    if frame[0] == _LOOP:
                        frame[2] += 1
                        vertex = frame[1]
                        if vertex is not None:
                            vertex.search_pos = 0
                        continue
                loop_iter(st, item[1])
            elif code == OP_LOOP_PUSH:
                loop_push(st, item[1])
            elif code == OP_LOOP_POP:
                loop_pop(st, item[1])
            elif code == OP_REQ_COMPLETE:
                if pending:  # else: no wildcard receive to resolve
                    request_complete(st, item[1], item[2], item[3], item[4])
            elif code == OP_RECURSE_ENTER:
                recurse_enter(st, item[1])
            elif code == OP_RECURSE_EXIT:
                recurse_exit(st, item[1])
            elif code == OP_FINALIZE:
                self._finalize(st)
            else:  # pragma: no cover - capture writes only known opcodes
                raise StreamMismatchError(f"unknown stream opcode {code!r}")

    def ingest_runs(self, rank: int, source) -> None:
        """:meth:`ingest_stream` on a decoded CYPK source.  Kept only
        because ``benchmarks/e2e/batch.py`` times it as
        ``intra.ingest_runs_s``."""
        self.ingest_stream(rank, packed.decode_stream(source))


# ---------------------------------------------------------------------------
# Deferred compression of captured streams, with rank quarantine.


def _ingest_or_quarantine(
    comp: IntraProcessCompressor,
    rank: int,
    stream,
    report: QuarantineReport,
) -> None:
    """Compress one rank's stream (capture-list or packed form); a
    CST/stream mismatch quarantines the rank (partial CTT discarded, its
    events counted) instead of aborting the whole run."""
    raw = packed.decode_stream(stream) if packed.is_packed(stream) else stream
    try:
        comp.ingest_stream(rank, raw)
    except StreamMismatchError as exc:
        comp.discard_rank(rank)
        report.add(
            QuarantinedRank(
                rank=rank,
                stage="intra",
                error=str(exc),
                events=sum(1 for item in raw if item[0] == OP_EVENT),
            )
        )


def close_shared_sessions() -> None:
    """No-op: nothing outlives a :func:`compress_streams` call.  Kept
    only because ``benchmarks/e2e`` (``batch.py``, ``run.py``) calls it."""


def compress_streams(
    cst: CSTNode,
    streams: dict[int, list],
    config: CypressConfig | None = None,
    workers=None,
    *,
    nranks: int | None = None,
) -> IntraProcessCompressor:
    """Compress captured per-rank streams into an
    :class:`IntraProcessCompressor`, one rank after another in this
    process.

    ``workers`` is accepted and ignored.  Kept only because
    ``benchmarks/e2e/batch.py`` passes ``workers=2`` in its traced pass
    (its ``compress_w2_s`` row then times this same loop).

    Fault tolerance (docs/INTERNALS.md §7): a rank whose stream
    mismatches the CST is *quarantined* — recorded on the returned
    compressor's ``.quarantine`` report with its raw capture, while
    every healthy rank compresses normally.  A caller that wants the
    :class:`~repro.core.errors.StreamMismatchError` raised calls
    :meth:`IntraProcessCompressor.ingest_stream` itself.

    ``streams`` values may be capture lists, :class:`~repro.core.packed.
    PackedStream` objects, or packed blobs (``bytes``); a packed source
    is decoded (:func:`~repro.core.packed.decode_stream`) and every rank
    runs :meth:`~IntraProcessCompressor.ingest_stream`.

    Each rank is sealed as its stream ends and the result is read via
    ``comp.merged(...)``; with ``config.memory_budget_bytes`` set the
    sealed ranks fold into a partial merged tree on the way and cold
    ranks spill under budget pressure — byte-identical to the unbudgeted
    pipeline (``nranks`` is forwarded to the merge's damaged-delta
    repair).
    """
    comp = IntraProcessCompressor(cst, config=config)
    comp.enable_incremental_fold(nranks=nranks, domain=streams)
    for rank, stream in sorted(streams.items()):
        _ingest_or_quarantine(comp, rank, stream, comp.quarantine)
        comp.seal_rank(rank)
    registry = obs.active()
    if comp.quarantine and registry is not None:
        registry.counter_add("faults.quarantined_ranks", len(comp.quarantine))
    return comp
