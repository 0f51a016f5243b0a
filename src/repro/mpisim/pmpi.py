"""PMPI-style tracing layer.

The simulated runtime reports every MPI call — and, when CYPRESS
instrumentation is active, every control-structure marker — to a
:class:`TraceSink`.  This mirrors the paper's customised MPI communication
library built on the MPI profiling layer, including the two instrumented
functions ``PMPI_COMM_Structure`` / ``PMPI_COMM_Structure_Exit`` (Fig. 9),
which appear here as the ``on_loop_* / on_branch_* / on_recurse_*``
callbacks.

Sinks compose: :class:`MultiSink` fans one execution out to several
compressors at once (so a benchmark can trace one run with CYPRESS,
ScalaTrace and the raw writer simultaneously), and :class:`TimingSink`
wraps any sink with CPU-time accounting used by the overhead figures.

Deferred work: a sink may buffer callbacks and process them later (the
CYPRESS compressor does), so whoever drives a sink calls ``flush()`` once
after the last callback — :meth:`Runtime.run <repro.mpisim.runtime.Runtime.run>`
does, and :class:`MultiSink` / :class:`TimingSink` pass it on.

Capture: :class:`CaptureCallbacks` turns every callback into one compact
opcode tuple; :class:`StreamCaptureSink` keeps the complete per-rank
stream of them.  A captured stream can be replayed
into any sink later (``replay_into``) or handed to
:func:`repro.core.intra.compress_streams`.
"""

from __future__ import annotations

import time

from .events import CommEvent

# Opcodes of captured callback streams (StreamCaptureSink.streams).  One
# tuple per callback: (opcode, *args) with the rank implied by the
# per-rank stream the tuple is stored in.
(
    OP_LOOP_PUSH,
    OP_LOOP_ITER,
    OP_LOOP_POP,
    OP_BRANCH_ENTER,
    OP_BRANCH_EXIT,
    OP_RECURSE_ENTER,
    OP_RECURSE_EXIT,
    OP_EVENT,
    OP_REQ_COMPLETE,
    OP_FINALIZE,
) = range(10)


class TraceSink:
    """Interface every trace consumer implements.  Default: ignore all."""

    # -- structural markers (CYPRESS instrumentation only) ---------------

    def on_loop_push(self, rank: int, ast_id: int) -> None: ...

    def on_loop_iter(self, rank: int, ast_id: int) -> None: ...

    def on_loop_pop(self, rank: int, ast_id: int) -> None: ...

    def on_branch_enter(self, rank: int, ast_id: int, path: int) -> None: ...

    def on_branch_exit(self, rank: int, ast_id: int) -> None: ...

    def on_recurse_enter(self, rank: int, ast_id: int) -> None: ...

    def on_recurse_exit(self, rank: int, ast_id: int) -> None: ...

    # -- communication events ------------------------------------------

    def on_event(self, rank: int, event: CommEvent) -> None: ...

    def on_request_complete(
        self, rank: int, rid: int, source: int, nbytes: int, when: float
    ) -> None:
        """Called when a nonblocking request completes — resolves wildcard
        receive sources (the paper delays their compression until here)."""

    def on_finalize(self, rank: int) -> None:
        """Called when ``rank`` executes MPI_Finalize."""

    def flush(self) -> None:
        """Called once after the last callback of a run (by
        :meth:`~repro.mpisim.runtime.Runtime.run`, after the last rank
        finishes): a sink that defers work completes it here."""

    # -- hints -----------------------------------------------------------

    wants_markers: bool = False  # runtimes skip marker plumbing when False


class NullSink(TraceSink):
    """Tracing disabled (used to measure the uninstrumented baseline)."""


class MultiSink(TraceSink):
    """Broadcast every callback to several sinks."""

    def __init__(self, sinks: list[TraceSink]) -> None:
        self.sinks = list(sinks)
        self.wants_markers = any(s.wants_markers for s in sinks)

    def on_loop_push(self, rank, ast_id):
        for s in self.sinks:
            s.on_loop_push(rank, ast_id)

    def on_loop_iter(self, rank, ast_id):
        for s in self.sinks:
            s.on_loop_iter(rank, ast_id)

    def on_loop_pop(self, rank, ast_id):
        for s in self.sinks:
            s.on_loop_pop(rank, ast_id)

    def on_branch_enter(self, rank, ast_id, path):
        for s in self.sinks:
            s.on_branch_enter(rank, ast_id, path)

    def on_branch_exit(self, rank, ast_id):
        for s in self.sinks:
            s.on_branch_exit(rank, ast_id)

    def on_recurse_enter(self, rank, ast_id):
        for s in self.sinks:
            s.on_recurse_enter(rank, ast_id)

    def on_recurse_exit(self, rank, ast_id):
        for s in self.sinks:
            s.on_recurse_exit(rank, ast_id)

    def on_event(self, rank, event):
        for s in self.sinks:
            s.on_event(rank, event)

    def on_request_complete(self, rank, rid, source, nbytes, when):
        for s in self.sinks:
            s.on_request_complete(rank, rid, source, nbytes, when)

    def on_finalize(self, rank):
        for s in self.sinks:
            s.on_finalize(rank)

    def flush(self):
        for s in self.sinks:
            s.flush()


class TimingSink(TraceSink):
    """Wraps a sink, accumulating the CPU time spent inside it.

    ``elapsed`` (seconds) is the intra-process compression overhead
    attributable to the wrapped compressor — the quantity Fig. 16 plots
    relative to application time.
    """

    def __init__(self, inner: TraceSink) -> None:
        self.inner = inner
        self.elapsed = 0.0
        self.calls = 0
        self.wants_markers = inner.wants_markers

    def _timed(self, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(*args)
        self.elapsed += time.perf_counter() - t0
        self.calls += 1

    def on_loop_push(self, rank, ast_id):
        self._timed(self.inner.on_loop_push, rank, ast_id)

    def on_loop_iter(self, rank, ast_id):
        self._timed(self.inner.on_loop_iter, rank, ast_id)

    def on_loop_pop(self, rank, ast_id):
        self._timed(self.inner.on_loop_pop, rank, ast_id)

    def on_branch_enter(self, rank, ast_id, path):
        self._timed(self.inner.on_branch_enter, rank, ast_id, path)

    def on_branch_exit(self, rank, ast_id):
        self._timed(self.inner.on_branch_exit, rank, ast_id)

    def on_recurse_enter(self, rank, ast_id):
        self._timed(self.inner.on_recurse_enter, rank, ast_id)

    def on_recurse_exit(self, rank, ast_id):
        self._timed(self.inner.on_recurse_exit, rank, ast_id)

    def on_event(self, rank, event):
        self._timed(self.inner.on_event, rank, event)

    def on_request_complete(self, rank, rid, source, nbytes, when):
        self._timed(self.inner.on_request_complete, rank, rid, source, nbytes, when)

    def on_finalize(self, rank):
        self._timed(self.inner.on_finalize, rank)

    def flush(self):
        self._timed(self.inner.flush)


class RecordingSink(TraceSink):
    """Collects raw per-rank event lists — ground truth for tests and for
    the replay-correctness checks (sequence preservation)."""

    def __init__(self) -> None:
        self.events: dict[int, list[CommEvent]] = {}

    def on_event(self, rank: int, event: CommEvent) -> None:
        self.events.setdefault(rank, []).append(event)

    def on_request_complete(self, rank, rid, source, nbytes, when):
        # Resolve wildcard receives in the recorded ground truth the same
        # way compressors do, so comparisons line up.
        for ev in reversed(self.events.get(rank, ())):
            if ev.req == rid and ev.op == "MPI_Irecv" and ev.wildcard:
                ev.peer = source
                ev.nbytes = nbytes
                break


class CaptureCallbacks(TraceSink):
    """The capture half of a sink: every callback becomes one opcode
    tuple ``(opcode, *args)`` handed to ``_append(rank, item)`` — one
    tuple construction per callback, nothing else at the source.  What
    happens to the items is the subclass's business:
    :class:`StreamCaptureSink` keeps them all,
    :class:`~repro.core.intra.IntraProcessCompressor` buffers a bounded
    number and drains them through its batched ingest loop.

    Per-rank callback order is preserved exactly, which is the only
    ordering the intra-process compressor depends on (rank states never
    interact).
    """

    wants_markers = True

    def _append(self, rank: int, item: tuple) -> None:
        raise NotImplementedError

    def on_loop_push(self, rank, ast_id):
        self._append(rank, (OP_LOOP_PUSH, ast_id))

    def on_loop_iter(self, rank, ast_id):
        self._append(rank, (OP_LOOP_ITER, ast_id))

    def on_loop_pop(self, rank, ast_id):
        self._append(rank, (OP_LOOP_POP, ast_id))

    def on_branch_enter(self, rank, ast_id, path):
        self._append(rank, (OP_BRANCH_ENTER, ast_id, path))

    def on_branch_exit(self, rank, ast_id):
        self._append(rank, (OP_BRANCH_EXIT, ast_id))

    def on_recurse_enter(self, rank, ast_id):
        self._append(rank, (OP_RECURSE_ENTER, ast_id))

    def on_recurse_exit(self, rank, ast_id):
        self._append(rank, (OP_RECURSE_EXIT, ast_id))

    def on_event(self, rank, event):
        self._append(rank, (OP_EVENT, event))

    def on_request_complete(self, rank, rid, source, nbytes, when):
        self._append(rank, (OP_REQ_COMPLETE, rid, source, nbytes, when))

    def on_finalize(self, rank):
        self._append(rank, (OP_FINALIZE,))


class StreamCaptureSink(CaptureCallbacks):
    """Records the complete per-rank callback stream as opcode tuples.

    Capturing is one tuple construction plus a list append per callback —
    far cheaper than compressing at the callback — which is what makes
    deferred compression worthwhile: the traced run finishes at
    near-uninstrumented speed and the captured streams are compressed
    afterwards, per rank.
    """

    def __init__(self) -> None:
        self.streams: dict[int, list] = {}

    def _append(self, rank, item):
        try:
            self.streams[rank].append(item)
        except KeyError:
            self.streams[rank] = [item]

    def replay_into(self, sink: TraceSink, ranks=None) -> None:
        """Re-drive ``sink`` from the captured streams, one rank at a
        time.  Only per-rank callback order is preserved (sufficient for
        any sink whose state is per-rank, like the compressors).  Ends
        with ``sink.flush()``, as every driver of a sink does."""
        for rank in sorted(self.streams) if ranks is None else ranks:
            for item in self.streams.get(rank, []):
                code = item[0]
                if code == OP_EVENT:
                    sink.on_event(rank, item[1])
                elif code == OP_LOOP_PUSH:
                    sink.on_loop_push(rank, item[1])
                elif code == OP_LOOP_ITER:
                    sink.on_loop_iter(rank, item[1])
                elif code == OP_LOOP_POP:
                    sink.on_loop_pop(rank, item[1])
                elif code == OP_BRANCH_ENTER:
                    sink.on_branch_enter(rank, item[1], item[2])
                elif code == OP_BRANCH_EXIT:
                    sink.on_branch_exit(rank, item[1])
                elif code == OP_RECURSE_ENTER:
                    sink.on_recurse_enter(rank, item[1])
                elif code == OP_RECURSE_EXIT:
                    sink.on_recurse_exit(rank, item[1])
                elif code == OP_REQ_COMPLETE:
                    sink.on_request_complete(
                        rank, item[1], item[2], item[3], item[4]
                    )
                elif code == OP_FINALIZE:
                    sink.on_finalize(rank)
        sink.flush()
